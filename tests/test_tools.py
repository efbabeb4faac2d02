"""tools/output_digests.py, run in a child process: the tool puts ``src`` and
``perfbench`` on ``sys.path`` and turns off bytecode writing when imported."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digests.py"


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_refuses_an_out_that_is_not_empty(tmp_path):
    (tmp_path / "keep.txt").write_text("mine")
    done = subprocess.run([sys.executable, str(TOOL), "gauss", "1", str(tmp_path)],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 2
    assert "is not empty" in done.stderr
    assert done.stdout == ""
    assert _files(tmp_path) == {"keep.txt": b"mine"}
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]


def test_digests_list_every_file_but_the_logs_sorted_by_path(tmp_path):
    tree = {"b.ckpt": b"weights", "a/x.csv": b"1,2\n", "c/d/e.pgm": b"P5 1 1 255\n\0",
            "teacher_log.csv": b"step,ms\n", "c/student_log.csv": b"step,ms\n"}
    for name, data in tree.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    (tmp_path / "empty").mkdir()
    show = ("import pathlib, runpy, sys\n"
            "digests = runpy.run_path(sys.argv[1])['digests']\n"
            "print('\\n'.join(digests(pathlib.Path(sys.argv[2]))))\n")
    done = subprocess.run([sys.executable, "-c", show, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{hashlib.sha256(tree[name]).hexdigest()}  {name}"
                                        for name in ("a/x.csv", "b.ckpt", "c/d/e.pgm")]


# The gauss round's outputs at seed 12345, the same at one and two OpenBLAS
# threads on a 2-vCPU host: a change that keeps the program's numbers keeps them.
# The ":params" lines pin the weights alone; a checkpoint file's bytes also
# hold the config, so a config field added or removed moves only the file pins.
GAUSS_12345 = {
    "teacher.ckpt:params": "41c4e6562bc564fc3b4cfab529354c678a42fec9066128d49a4217dd0f065fb2",
    "student.ckpt:params": "311ada31fb3cf66f2722e704aa811bb688faef75af991088adbc406e99ae8db7",
    "teacher.ckpt": "6657f4e668ca9cb4a215a823ecbe453da499ae80bdff125943aae60e811c3b87",
    "student.ckpt": "be12d468facff9db712f9ed29bfbcbb12dc209c40b0381dc73bcdf23074be6b5",
    "sweep.csv": "1728d347b22387c0438234564a8cfa5e281dee9348f79182deb12a12896f1ff5",
    "samples.csv": "e3d5804f431acc4770fb6742946ee5a00bd6f78d988f61fa7be81b5132f4b838",
    "verify/residual_grid.csv": "be784026082bdbe5eccf322fe2d8dd07ee3a4290d150e6e23ddd66c51b9d290a",
}


def test_gauss_round_outputs_are_pinned(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), "gauss", "12345", str(tmp_path / "out")],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = set(done.stdout.splitlines())
    for name, digest in GAUSS_12345.items():
        assert f"{digest}  {name}" in lines, name
