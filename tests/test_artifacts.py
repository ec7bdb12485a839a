"""The sample programs' artifacts, pinned by sha256.

For each ``programs/*.apc`` under ``--scale auto`` and ``--scale none``
this pins the netlist and its ``.map.json`` at the default k0 and at
``--k0 1000`` (where a stage gain above 1, as in decay, puts lambda
below k0), the output of ``apc map --machine that``, and the ``apc run
--dt 1e-3 --trace`` CSVs of the ideal machine, of ``--resolution 1e-3``
and of ``--problem-units``, with every command's stdout, stderr and exit
code. A change that moves an artifact on purpose updates its hash here
and says why in CHANGES.md.
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

    def apc(key: str, *argv: str) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        got[key] = _sha(f"exit {code}\n{out.getvalue()}\0{err.getvalue()}")
        return code

    def files(key: str, stem: str, *suffixes: str) -> None:
        for suffix in suffixes:
            got[f"{key} {suffix}".lstrip()] = _sha(Path(stem + suffix).read_bytes())

    if apc("compile", "compile", f"{name}.apc", "--scale", scale, "-o", f"{name}.json") == 0:
        files("", name, ".json", ".map.json")
        apc("map", "map", f"{name}.json", "--machine", "that")
        for flags in ((), ("--resolution", "1e-3"), ("--problem-units",)):
            if apc(" ".join(("run", *flags)), "run", f"{name}.json", "--dt", "1e-3", *flags,
                   "--trace", f"{name}.csv") == 0:
                files(" ".join(flags), name, ".csv")
    k0 = f"{name}-k0"
    if apc("compile --k0 1000", "compile", f"{name}.apc", "--scale", scale, "--k0", "1000",
           "-o", f"{k0}.json") == 0:
        files("--k0 1000", k0, ".json", ".map.json")
    return got


PINNED = {
    ("bigsine", "auto"): {
        "compile": "ceb063130204ffef2c2cc1aacb72ff0eddbb736f6357fd1fabb79b5da38406a5",
        ".json": "70edb62a599ab2aeb4ccdf6ca3ef76bd91320b3d6100f85da471367b8c00b1ba",
        ".map.json": "460044d0285538d4732fe2221df242df41f8120b826216b1aa9edd2fdc2b8f73",
        "map": "4ec72d70de0c593be348ba8956bf4ef529ad3028630dbfb1fed63a97538c5ce0",
        "run": "1ad3a958d057f12148d8db0fb8db12c61d60e218a67f8fab83192701e85e119b",
        ".csv": "bdb9ef3e1ad4a572c157b559e388dd6a833c9c87cf0296601e9c99ac2da19b58",
        "run --resolution 1e-3": "6e193ac85ea50c4f74d5f83d05dd820bf16110585f2528d831affb8b0aa69f74",
        "--resolution 1e-3 .csv": "2da1a07cfe93ec07de1751b33fbc97dd72258d12f6658e499daa98060380b5e8",
        "run --problem-units": "1ad3a958d057f12148d8db0fb8db12c61d60e218a67f8fab83192701e85e119b",
        "--problem-units .csv": "a16aee8a7f78af725fe65aab8668ecb89685ce7945e706fff37407ff6b08cee5",
        "compile --k0 1000": "3cb535dca85135e91bd405f2be91370841cf296f4267766a13c091a754e52ac4",
        "--k0 1000 .json": "df7e0a1f5b1a187f8d5d0cfb0acfd4bf2e3f614f517026347a38afcf0f454eb0",
        "--k0 1000 .map.json": "e973380e3c4cad843f3b40f9e4205bc80ebfaaf2974bc1126abcc701caa94709",
    },
    ("bigsine", "none"): {
        "compile": "6850b4c342191dba2ab8c6ace74b05e6e35232be78cb0c9dbf8bfd67ec24b79a",
        "compile --k0 1000": "6850b4c342191dba2ab8c6ace74b05e6e35232be78cb0c9dbf8bfd67ec24b79a",
    },
    ("decay", "auto"): {
        "compile": "9f6a9c12ad34232295dbf1972b2b0b8fb67bad8b00617460a4687d6f3ef6cc4a",
        ".json": "52c072e43f884dc6a52942aafb1dfd885cab28205ab59e03eaa02d28f438fdef",
        ".map.json": "311ed6a7edf8018497e8f844cf870775f410f97629e50a1043a8a8d98d54efa7",
        "map": "3b95381794df4121d9cc66ff83c370fe8b053e2c5e5f7ebebdce9bae1630abfd",
        "run": "bdf54c0b3506bc7026d16523f9d993b583c236b36dbbe932336e5da2f88c8060",
        ".csv": "e28dd98e134a4847805d1a01015d041543888f368bfc3bf8e080e774ad560fcf",
        "run --resolution 1e-3": "bdf54c0b3506bc7026d16523f9d993b583c236b36dbbe932336e5da2f88c8060",
        "--resolution 1e-3 .csv": "a5804bf33154c4e02d0c18d306fe7fe132f6586a0d7cddca784ffb4b09df1288",
        "run --problem-units": "bdf54c0b3506bc7026d16523f9d993b583c236b36dbbe932336e5da2f88c8060",
        "--problem-units .csv": "4861bf6738de0bb06a456d7a3626da90d18fa617f6e76968348cac371f177014",
        "compile --k0 1000": "be4b610ab8b28bcbb3385467a50da618fe06c1db85c9594d99160bbd89287b10",
        "--k0 1000 .json": "28ffdf1f458b02d687ee9ebbfa94fb77c76f75ab17e186952a9c94412a647573",
        "--k0 1000 .map.json": "a8357638bcccb1fdbd8f753a86df2c91918e7abade31fdbca12b9fd930beeaa8",
    },
    ("decay", "none"): {
        "compile": "f3714e68c7f8a98fd1ce683557ff5177b3d02d1e639deb7e9a32b50707d15041",
        ".json": "fc0271837298586b3821e77f755cf8d80a89aabd566f1856d3adf78a1e1b3b8f",
        ".map.json": "42e25947e905ed5bd1ddf26a0c1a3627faf0ad666a95a631e4b0bf5339251c40",
        "map": "3b95381794df4121d9cc66ff83c370fe8b053e2c5e5f7ebebdce9bae1630abfd",
        "run": "bdf54c0b3506bc7026d16523f9d993b583c236b36dbbe932336e5da2f88c8060",
        ".csv": "07b52a753e900eeee1357fedcb4b5f0f7af6728fa5682dce0405e60fd7f9a416",
        "run --resolution 1e-3": "bdf54c0b3506bc7026d16523f9d993b583c236b36dbbe932336e5da2f88c8060",
        "--resolution 1e-3 .csv": "380371225a12a893d1de6ca3677f52ae35b5f0056705dc37c70e290c7b456ade",
        "run --problem-units": "bdf54c0b3506bc7026d16523f9d993b583c236b36dbbe932336e5da2f88c8060",
        "--problem-units .csv": "9dd756637609f7fcf6f5d395acd4fdb64df319cfca3721973054ff63a85b937e",
        "compile --k0 1000": "26d3874d563242251dcf8a2f8e37c69cd323b94bbd04f8b958764cb4885ebeef",
        "--k0 1000 .json": "f03c4c9aeed594af4edc921963247f69aa6efbb28499eb5e7c5907d469e2e87a",
        "--k0 1000 .map.json": "936c943bf9fb799adb8747764b448952de2ddbc110c03c5df2db5188e2588b8c",
    },
    ("sine", "auto"): {
        "compile": "9dfa6afaff01e811f3976c5edeb5c1ef38c6fbb4fef7551a563a67a1aa878201",
        ".json": "baf2e9f75cf6c6be01b0379996a4128d49a34eca063c6b6d34f95f2f1d1d23d9",
        ".map.json": "fc0baab0357dcb3baaeeb478f85c0f34aa02c00f31757d92f10620e57a0c09f3",
        "map": "4ec72d70de0c593be348ba8956bf4ef529ad3028630dbfb1fed63a97538c5ce0",
        "run": "c483188fe6f939a35ab334b605a1c7455734ea5332de60c56a0dd9cd2d1c4647",
        ".csv": "598324caae1846fd14848c0cf3f77923209f1313d48c09d1d079bcf20aab721a",
        "run --resolution 1e-3": "c483188fe6f939a35ab334b605a1c7455734ea5332de60c56a0dd9cd2d1c4647",
        "--resolution 1e-3 .csv": "ed2e2c2e319ee1d7f4b6c15ed1d62adfb39ad9247e7b5b68b6601319053b5bcf",
        "run --problem-units": "c483188fe6f939a35ab334b605a1c7455734ea5332de60c56a0dd9cd2d1c4647",
        "--problem-units .csv": "fd7ecc235bf11366b13eeed523ff31efbd69f3d0b491f1a8433f7b5e9d02fb4b",
        "compile --k0 1000": "9044f6398cd268aac1c755b35f7ad5b84c34e9be72a993a17a7df5e5744c199b",
        "--k0 1000 .json": "fd5deb44e16f8e89fcb0ea91a54cd4ce7decfb766c31efd377eb7eb832c2a962",
        "--k0 1000 .map.json": "f0b7944d2aa8c7097af2cb14cccbf349b6cda8ccea73a0cc4041b85cd02ae36d",
    },
    ("sine", "none"): {
        "compile": "9dfa6afaff01e811f3976c5edeb5c1ef38c6fbb4fef7551a563a67a1aa878201",
        ".json": "825d13d5dfa2ec089c29cef97c57e9a973a9c4cc5ce30b92331ffb31c87606eb",
        ".map.json": "17606bf142531d240aaee66683955af05518f105023de990a8cde12719808562",
        "map": "4ec72d70de0c593be348ba8956bf4ef529ad3028630dbfb1fed63a97538c5ce0",
        "run": "dc9d76dca32e42a030de5db282873d7f1dc1564f6538be68c035f6e6f4ee9e2e",
        ".csv": "4076bf44d492347d92552feb92489e7f9c36c32592bdc8eb62d3bf0e162da913",
        "run --resolution 1e-3": "dc9d76dca32e42a030de5db282873d7f1dc1564f6538be68c035f6e6f4ee9e2e",
        "--resolution 1e-3 .csv": "f113aa2bde378a579e458023a0662babf1df6aec2e84937252b4b26e22b6072d",
        "run --problem-units": "dc9d76dca32e42a030de5db282873d7f1dc1564f6538be68c035f6e6f4ee9e2e",
        "--problem-units .csv": "fd7ecc235bf11366b13eeed523ff31efbd69f3d0b491f1a8433f7b5e9d02fb4b",
        "compile --k0 1000": "9044f6398cd268aac1c755b35f7ad5b84c34e9be72a993a17a7df5e5744c199b",
        "--k0 1000 .json": "15d6c3cb1b56baefc71e519177d1a8328726db61ea4fc485ba679c2ac7a2caf8",
        "--k0 1000 .map.json": "8590ca2c61478e56805464ecb1913808b2341d5b250035fffd98ac91902da84a",
    },
    ("vco", "auto"): {
        "compile": "94eba4d442d1271237a32bf3dd028d0609ba8a50a3afa99a6629825dc19b250b",
        ".json": "7b8a74dd6930e5bb96d047447bafd51a4dc3e9394c2730e8f725a584da7f1ced",
        ".map.json": "8d632ad605a4b451baf1a2dfaf0af0ea29c097db6a4e7c6872accab078931ce9",
        "map": "3d4c607ba17ff7a47614be67a9e5bdffb7f46a978a633172eda88931773f2b50",
        "run": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        ".csv": "8331406a561d38e9138e82550226af7afa022162a2692867c497339259c0f14b",
        "run --resolution 1e-3": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        "--resolution 1e-3 .csv": "fcb11272fc1a080d1e912818b5881697bf5d902ff64ad0d44166bec239fce164",
        "run --problem-units": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        "--problem-units .csv": "edc4b0d8edf03329a4f0687e522616c33b756ccb623add311dba3bcdd8db5e6d",
        "compile --k0 1000": "36865a1415b3519ed88225a880f4f2207b43d03801978b065d013f85c9d306bb",
        "--k0 1000 .json": "7b1bd0520c836fc0604f39602249550c22e7005b73786ff74f1ba5f240eb305d",
        "--k0 1000 .map.json": "86d0de698541c65d7ff9b2103b4b6f5e6f04f3c138f19be78cd66b70cb77a57f",
    },
    ("vco", "none"): {
        "compile": "94eba4d442d1271237a32bf3dd028d0609ba8a50a3afa99a6629825dc19b250b",
        ".json": "266402e739bca071d39f46a0d3aa50021dcfcd4c7b7d5ed19ce3208eaf5c352c",
        ".map.json": "122b0220a5db38c4d5b5f3d3d6af1e114fcf74c7d7c614f0e96b5bd731a5b54b",
        "map": "a4b2cb681ef0afb2ca45d47ad6e493a5ac45ba2f4721f0c0c50bd1f0224f4e12",
        "run": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        ".csv": "8331406a561d38e9138e82550226af7afa022162a2692867c497339259c0f14b",
        "run --resolution 1e-3": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        "--resolution 1e-3 .csv": "fcb11272fc1a080d1e912818b5881697bf5d902ff64ad0d44166bec239fce164",
        "run --problem-units": "c01d070b7027a87dcd1275a7e36cdbda0d454a344420f2a509888f27589e9f49",
        "--problem-units .csv": "edc4b0d8edf03329a4f0687e522616c33b756ccb623add311dba3bcdd8db5e6d",
        "compile --k0 1000": "36865a1415b3519ed88225a880f4f2207b43d03801978b065d013f85c9d306bb",
        "--k0 1000 .json": "82c1b32d567257e300bc4712bf928f9c7a622ea95aa5d346be472d3a130d1f27",
        "--k0 1000 .map.json": "ff853ecd8f8115df2b8a026d51fd7880eb2dc27a0d350c3c2d92a210f7f16700",
    },
    ("xabc", "auto"): {
        "compile": "8b53529e07f879aacc6307ffdc996c0d7873566b49976a556e0ea92741690370",
        ".json": "fc2d25e2fceb4c2a5e865a04a3d4dfb7411e6025c0f25eef6a33249b28087068",
        ".map.json": "cb82bf0021c28c36d2559dba58dba5527b142088c0d86f8525ebe7af2f2bbe93",
        "map": "aa1f2d2ecd27d54ca0c7b0ad7a02eb6212095e61015c0c4e0b7da171ce454e26",
        "run": "4446a43623b9b6e28cc83540c163351ba567b0a816156c2fb5c1d95b69e88e2a",
        ".csv": "dfa5c32a92975932a319ec89063dbb67c9ca7d39c9cca080f4ce4d7f968088f7",
        "run --resolution 1e-3": "4446a43623b9b6e28cc83540c163351ba567b0a816156c2fb5c1d95b69e88e2a",
        "--resolution 1e-3 .csv": "dfa5c32a92975932a319ec89063dbb67c9ca7d39c9cca080f4ce4d7f968088f7",
        "run --problem-units": "4446a43623b9b6e28cc83540c163351ba567b0a816156c2fb5c1d95b69e88e2a",
        "--problem-units .csv": "442e97523c7a3cbec84831f9e4c3e6e734b68c92af1049dd2c9c19023cceaa62",
        "compile --k0 1000": "a73732c031d257532654ee16ff9b24ac66b66c85eda2807bf08ef2814ee2503c",
        "--k0 1000 .json": "fc2d25e2fceb4c2a5e865a04a3d4dfb7411e6025c0f25eef6a33249b28087068",
        "--k0 1000 .map.json": "59199957771fef42bd301f7338a0d633dec4a45b4d9736485abd1647c96f9ee2",
    },
    ("xabc", "none"): {
        "compile": "66575508ca21737d0eeacb795e28eef081006ffbcd919ce539484a732926a117",
        ".json": "ded04d32a40ed4c53b5b45d3518ed19705504a53036452e4447311860cb34888",
        ".map.json": "53a93f4bcc16ad5bdfdcc31e73237fd1ecd653aa1110e39a443a619be492aa42",
        "map": "235bc33f5c761a20c22d735ec1bd5bf9be968051005e40df6272c5de4550617c",
        "run": "02858aa501e463399620bbc19527233b970e9f3fd4e2354d84c2d565ae554250",
        ".csv": "5c8df1687cc172ad2e5fd3bf00f10e389aff9a0ff1bcaf33ca072a5ca74a0000",
        "run --resolution 1e-3": "02858aa501e463399620bbc19527233b970e9f3fd4e2354d84c2d565ae554250",
        "--resolution 1e-3 .csv": "5c8df1687cc172ad2e5fd3bf00f10e389aff9a0ff1bcaf33ca072a5ca74a0000",
        "run --problem-units": "02858aa501e463399620bbc19527233b970e9f3fd4e2354d84c2d565ae554250",
        "--problem-units .csv": "442e97523c7a3cbec84831f9e4c3e6e734b68c92af1049dd2c9c19023cceaa62",
        "compile --k0 1000": "2c213794644b3b06119b70c1e23b37624ba61cd69c67b463231a6ba75734c1f5",
        "--k0 1000 .json": "ded04d32a40ed4c53b5b45d3518ed19705504a53036452e4447311860cb34888",
        "--k0 1000 .map.json": "a6f8dd42f215edb8af44ee88b15c1c096a37cdcc8533026bc764c5b2976b229a",
    },
}


@pytest.mark.parametrize("name, scale", sorted(PINNED))
def test_sample_artifacts_are_pinned(name, scale, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifacts(name, scale) == PINNED[(name, scale)]


def test_every_sample_is_pinned():
    names = {p.stem for p in (ROOT / "programs").glob("*.apc")}
    assert set(PINNED) == {(name, scale) for name in names for scale in ("auto", "none")}
