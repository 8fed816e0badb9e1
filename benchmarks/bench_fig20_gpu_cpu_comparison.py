"""Figure 20: speedup and energy efficiency vs GPUs and CPUs.

Paper findings:
  * server: VCU128 (1920 multipliers, HBM) is up to 8.0x / 9.0x faster
    and up to 74.0x / 79.4x more energy-efficient than a V100 / TITAN Xp;
  * edge: Zynq 7045 (512 multipliers, DDR) is 3.5-8x faster than a Jetson
    Nano and 36.6-342x faster than a Raspberry Pi 4 (which OOMs on
    FABNet-Large at long sequences).
"""

from conftest import print_table

from repro.hardware import (
    JETSON_NANO,
    RASPBERRY_PI4,
    TITAN_XP,
    V100,
    AcceleratorConfig,
    ButterflyPerformanceModel,
    estimate_power,
    estimate_resources,
    fabnet_spec,
    platform_breakdown,
)

SEQ_LENGTHS = (128, 256, 512, 1024)

SERVER_FPGA = AcceleratorConfig(pbe=120, pbu=4, pae=0, pqk=0, psv=0,
                                bandwidth_gbs=450.0)
EDGE_FPGA = AcceleratorConfig(pbe=32, pbu=4, pae=0, pqk=0, psv=0,
                              bandwidth_gbs=19.2)


def compute_comparison():
    rows = []
    server_power = estimate_power(SERVER_FPGA, estimate_resources(SERVER_FPGA)).total
    edge_power = estimate_power(
        EDGE_FPGA, estimate_resources(EDGE_FPGA), hbm=False
    ).total
    scenarios = [
        ("server", SERVER_FPGA, server_power, [V100, TITAN_XP]),
        ("edge", EDGE_FPGA, edge_power, [JETSON_NANO, RASPBERRY_PI4]),
    ]
    for scenario, fpga_cfg, fpga_power, devices in scenarios:
        perf = ButterflyPerformanceModel(fpga_cfg)
        for large in (False, True):
            tag = "Large" if large else "Base"
            for seq in SEQ_LENGTHS:
                spec = fabnet_spec(seq, large)
                t_fpga = perf.model_latency(spec).latency_s
                for device in devices:
                    t_dev = platform_breakdown(device, spec).total
                    speedup = t_dev / t_fpga
                    energy_ratio = (t_dev * device.power_w) / (t_fpga * fpga_power)
                    rows.append(
                        (scenario, tag, seq, device.name,
                         f"x{speedup:.1f}", f"x{energy_ratio:.1f}")
                    )
    return rows


def test_fig20_gpu_cpu_comparison():
    rows = compute_comparison()
    print_table(
        "Figure 20: FPGA vs GPU/CPU (paper: up to 9x server speedup, "
        "3.5-8x Jetson, 36-342x Pi 4)",
        ["scenario", "model", "seq", "device", "speedup", "energy eff."],
        rows,
    )
    jetson = [float(r[4][1:]) for r in rows if r[3] == "Jetson Nano"]
    pi = [float(r[4][1:]) for r in rows if r[3] == "Raspberry Pi 4"]
    server = [float(r[4][1:]) for r in rows if r[0] == "server"]
    assert 2.0 < min(jetson) and max(jetson) < 15.0  # paper: 3.5-8x
    assert min(pi) > 20.0  # paper: 36.6-342x
    assert max(server) < 20.0  # server GPUs are competitive (paper: <=9x)
    # Energy efficiency always favors the FPGA.
    assert all(float(r[5][1:]) > 1.0 for r in rows)
