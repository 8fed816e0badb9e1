"""Cold-start gate: a process loads only the subpackages it runs.

Each case imports an entry point in a fresh interpreter and reads the
``repro.*`` subpackages left in its ``sys.modules``, so the gate counts
modules, not milliseconds.  ``repro serve`` (the HTTP server behind the
``http_stream`` workload) and every spawned cluster worker must load
none of the layers below; a module-level import that reaches one of
them from the serve or worker path fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_SERVED = {"analysis", "codesign", "data", "hardware", "training"}


def loaded_subpackages(code):
    """The ``repro`` subpackages a fresh interpreter holds after ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules\n"
        "                         if m.startswith('repro.')})))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_bare_import_loads_no_subpackage():
    assert loaded_subpackages("import repro") == set()


def test_serve_path_loads_no_unserved_layer():
    loaded = loaded_subpackages(
        "import repro.cli\n"
        "repro.cli.build_parser()\n"
        "import repro.serving.server, repro.serving.engine, repro.models.decoder\n"
    )
    assert {"cli", "serving", "models"} <= loaded
    assert loaded & NOT_SERVED == set()


def test_worker_loads_no_unserved_layer():
    loaded = loaded_subpackages("import repro.serving.worker")
    assert "serving" in loaded
    assert loaded & NOT_SERVED == set()


def test_cli_parser_loads_no_layer():
    """``repro --help`` and every subcommand's parse load only the CLI:
    each command imports the layers it runs when it runs."""
    loaded = loaded_subpackages("import repro.cli\nrepro.cli.build_parser()\n")
    assert loaded & {"butterfly", "faults", "kernels", "nn", "telemetry"} == set()
