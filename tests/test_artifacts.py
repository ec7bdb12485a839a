"""The sample programs' artifacts, pinned by sha256.

For each ``programs/*.apc`` under ``--scale auto`` and ``--scale none``
this pins the netlist and its ``.map.json``, the output of ``apc map
--machine that`` and an ``apc run --dt 1e-3 --trace`` CSV, with every
command's stdout, stderr and exit code. A change that moves an artifact
on purpose updates its hash here and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import pytest

from apc.cli import main
from conftest import ROOT


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def artifacts(name: str, scale: str) -> dict:
    """sha256 of every artifact and every command's output for one sample
    program compiled, placed and run in the current directory."""
    shutil.copy(ROOT / "programs" / f"{name}.apc", ".")
    got = {}

    def apc(*argv: str) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        got[argv[0]] = _sha(f"exit {code}\n{out.getvalue()}\0{err.getvalue()}")
        return code

    if apc("compile", f"{name}.apc", "--scale", scale, "-o", f"{name}.json") == 0:
        for suffix in (".json", ".map.json"):
            got[suffix] = _sha(Path(f"{name}{suffix}").read_bytes())
        apc("map", f"{name}.json", "--machine", "that")
        if apc("run", f"{name}.json", "--dt", "1e-3", "--trace", f"{name}.csv") == 0:
            got[".csv"] = _sha(Path(f"{name}.csv").read_bytes())
    return got


PINNED = {
    ("bigsine", "auto"): {
        "compile": "ceb063130204ffef2c2cc1aacb72ff0eddbb736f6357fd1fabb79b5da38406a5",
        ".json": "70edb62a599ab2aeb4ccdf6ca3ef76bd91320b3d6100f85da471367b8c00b1ba",
        ".map.json": "460044d0285538d4732fe2221df242df41f8120b826216b1aa9edd2fdc2b8f73",
        "map": "4ec72d70de0c593be348ba8956bf4ef529ad3028630dbfb1fed63a97538c5ce0",
        "run": "1ad3a958d057f12148d8db0fb8db12c61d60e218a67f8fab83192701e85e119b",
        ".csv": "bdb9ef3e1ad4a572c157b559e388dd6a833c9c87cf0296601e9c99ac2da19b58",
    },
    ("bigsine", "none"): {
        "compile": "6850b4c342191dba2ab8c6ace74b05e6e35232be78cb0c9dbf8bfd67ec24b79a",
    },
    ("decay", "auto"): {
        "compile": "d39c6036850b75c2ff172a38029733d4b2394e4f163a44ba435770c04ec83b30",
        ".json": "cdc3da8ea1f21d0d09ccf8f12a4f814bcb901dcf785e117ce17254d7e4db5cd5",
        ".map.json": "9d73ec2833c263d9ffb7a190d86f27d7d6575386b8abe0f0062f2bc2ec0a958a",
        "map": "3b95381794df4121d9cc66ff83c370fe8b053e2c5e5f7ebebdce9bae1630abfd",
        "run": "a91ba1b28edef5bc645a86cc74d35a1cdbc0ba3d763f5ce2f87daafac4a53e6d",
        ".csv": "f627357a089d362bd71ae1dea2c800265890d2f6db9d20508ac1cf0a7852381b",
    },
    ("decay", "none"): {
        "compile": "b6af6c191ce0f8a5c5ba17f337600c841b7f254ded456d9fab6cb3138051e181",
        ".json": "c7cbc3c1b83f9ec711a815b43708365c4af86ce49c0ade7ccc967f207922eea7",
        ".map.json": "09078479d0d3827ddc5a590851e440668e6945b4723b0734c625cc1fdf26553f",
        "map": "3b95381794df4121d9cc66ff83c370fe8b053e2c5e5f7ebebdce9bae1630abfd",
        "run": "a91ba1b28edef5bc645a86cc74d35a1cdbc0ba3d763f5ce2f87daafac4a53e6d",
        ".csv": "1503d98f10661512acac94863cd80342b7f7b67bea6ea17d9ab300264f6257a9",
    },
    ("sine", "auto"): {
        "compile": "9dfa6afaff01e811f3976c5edeb5c1ef38c6fbb4fef7551a563a67a1aa878201",
        ".json": "baf2e9f75cf6c6be01b0379996a4128d49a34eca063c6b6d34f95f2f1d1d23d9",
        ".map.json": "fc0baab0357dcb3baaeeb478f85c0f34aa02c00f31757d92f10620e57a0c09f3",
        "map": "4ec72d70de0c593be348ba8956bf4ef529ad3028630dbfb1fed63a97538c5ce0",
        "run": "c483188fe6f939a35ab334b605a1c7455734ea5332de60c56a0dd9cd2d1c4647",
        ".csv": "598324caae1846fd14848c0cf3f77923209f1313d48c09d1d079bcf20aab721a",
    },
    ("sine", "none"): {
        "compile": "9dfa6afaff01e811f3976c5edeb5c1ef38c6fbb4fef7551a563a67a1aa878201",
        ".json": "825d13d5dfa2ec089c29cef97c57e9a973a9c4cc5ce30b92331ffb31c87606eb",
        ".map.json": "17606bf142531d240aaee66683955af05518f105023de990a8cde12719808562",
        "map": "4ec72d70de0c593be348ba8956bf4ef529ad3028630dbfb1fed63a97538c5ce0",
        "run": "dc9d76dca32e42a030de5db282873d7f1dc1564f6538be68c035f6e6f4ee9e2e",
        ".csv": "4076bf44d492347d92552feb92489e7f9c36c32592bdc8eb62d3bf0e162da913",
    },
    ("vco", "auto"): {
        "compile": "94eba4d442d1271237a32bf3dd028d0609ba8a50a3afa99a6629825dc19b250b",
        ".json": "7b8a74dd6930e5bb96d047447bafd51a4dc3e9394c2730e8f725a584da7f1ced",
        ".map.json": "8d632ad605a4b451baf1a2dfaf0af0ea29c097db6a4e7c6872accab078931ce9",
        "map": "3d4c607ba17ff7a47614be67a9e5bdffb7f46a978a633172eda88931773f2b50",
        "run": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        ".csv": "8331406a561d38e9138e82550226af7afa022162a2692867c497339259c0f14b",
    },
    ("vco", "none"): {
        "compile": "94eba4d442d1271237a32bf3dd028d0609ba8a50a3afa99a6629825dc19b250b",
        ".json": "266402e739bca071d39f46a0d3aa50021dcfcd4c7b7d5ed19ce3208eaf5c352c",
        ".map.json": "122b0220a5db38c4d5b5f3d3d6af1e114fcf74c7d7c614f0e96b5bd731a5b54b",
        "map": "a4b2cb681ef0afb2ca45d47ad6e493a5ac45ba2f4721f0c0c50bd1f0224f4e12",
        "run": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        ".csv": "8331406a561d38e9138e82550226af7afa022162a2692867c497339259c0f14b",
    },
    ("xabc", "auto"): {
        "compile": "df3a4e9f8ea4c0540565091fde2d86dd5458f34fd1fb9fb6ef3b663b2dbc7d35",
        ".json": "486d6d7531942a5585abec9523c38588ea36765e04fc18d6060555e80b8674b3",
        ".map.json": "3683302482f4daf77efb814e519b206bb1076e0d9f200ff399c9fc533f5ca25a",
        "map": "bee7d87b1f6e921879a405e6f469534d6a51cefc38ca78af22d95f312f0076b5",
        "run": "eb19d2da48b6c05e29e11034cf63b5dbda2770ad647219aa9030b34a9b8f3f0a",
        ".csv": "5663f0ed1ee7cb98e87e37fc48a5ad45f8110eb37d17c47552c8559362e53b64",
    },
    ("xabc", "none"): {
        "compile": "3c4f56388f9a792c188c314411e2c6718520a5c8deba582f5b69fece38d09f4f",
        ".json": "a701d057766198b33c13d3088a6e9ed88c6a5256aacace892911ffd3299f16c5",
        ".map.json": "041cd0e71f813e36699b7010236ed5cde2865718b74a420db8204bfced6492b5",
        "map": "62e273f95792d68e5ba1c2856c31d9a916885e4d598342ce8c6b1ca3f6c8a2f4",
        "run": "99e5b19832d601be1fb214713e9664ba5a1f995a65e26e1dcb49e69a8c9ab78a",
        ".csv": "a7e1eb1455f2a0fcbaeda348cb178dd8cb443756669f753dd6f254d32e55c615",
    },
}


@pytest.mark.parametrize("name, scale", sorted(PINNED))
def test_sample_artifacts_are_pinned(name, scale, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifacts(name, scale) == PINNED[(name, scale)]


def test_every_sample_is_pinned():
    names = {p.stem for p in (ROOT / "programs").glob("*.apc")}
    assert set(PINNED) == {(name, scale) for name in names for scale in ("auto", "none")}
