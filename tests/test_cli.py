import json
from pathlib import Path

import pytest

from canrep.cli import HANDLERS, build_parser, main
from canrep.serialize import rep_from_json, rep_to_json
from canrep.quiver_algebra import canonical_algebra
from canrep.repcat import direct_sum, projective_at, simple_at

from helpers import F5, kron, kron_point

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture
def files(tmp_path):
    alg = kron(F5)
    alg_path = tmp_path / "kron.json"
    alg_path.write_text(json.dumps(alg.spec()))
    pc = projective_at(alg, "c")
    pc_path = tmp_path / "pc.json"
    pc_path.write_text(json.dumps(rep_to_json(pc)))
    mix = direct_sum([kron_point(alg, 0), simple_at(alg, "0")]).rep
    mix_path = tmp_path / "mix.json"
    mix_path.write_text(json.dumps(rep_to_json(mix)))
    return {"alg": str(alg_path), "pc": str(pc_path), "mix": str(mix_path),
            "tmp": tmp_path, "algebra": alg}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_report(files, capsys):
    code, out = run(capsys, ["classify", "--rep", files["pc"]])
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "P" and data["defect"] == -1
    assert data["canrep_format"] == 1


def test_decompose_determinism_and_round_trip(files, capsys):
    argv = ["decompose", "--seed", "7", "--rep", files["mix"]]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert sum(s["multiplicity"] for s in data["summands"]) == 2
    for s in data["summands"]:
        rep = rep_from_json({"algebra": data["algebra"], **s["rep"]})
        rep.verify_relations()
        # re-emission reproduces the document structurally
        emitted = rep_to_json(rep, include_algebra=False)
        assert emitted["dims"] == s["rep"]["dims"]
        assert emitted["arrows"] == s["rep"]["arrows"]


def test_omega_left_report(files, capsys):
    code, out = run(capsys, ["omega-left", "--tubes", "pt:t", "--depth", "3",
                             "--rep", files["pc"]])
    assert code == 0
    data = json.loads(out)
    assert data["certificates"]["ext_killed"] is True
    assert data["certificates"]["f_preserved"] is True
    assert data["sequence"]["middle"]["dims"] == {"0": 3, "c": 4}
    # emitted representations re-parse and re-verify
    rep = rep_from_json({"algebra": json.loads(
        open(files["alg"]).read()), **data["sequence"]["middle"]})
    rep.verify_relations()


def test_omega_right_report(files, capsys):
    alg = files["algebra"]
    s0_path = files["tmp"] / "s0.json"
    s0_path.write_text(json.dumps(rep_to_json(simple_at(alg, "0"))))
    code, out = run(capsys, ["omega-right", "--seed", "1", "--tubes", "pt:t",
                             "--depth", "1", "--rep", str(s0_path)])
    assert code == 0
    data = json.loads(out)
    assert data["certificates"]["kernel_torsionfree"] is True


def test_tube_simples_and_sbracket(files, capsys):
    code, out = run(capsys, ["tube-simples", "--algebra", files["alg"],
                             "--tube", "pt:t-2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["simples"]) == 1
    assert data["simples"][0]["arrows"]["x2"] == [["2"]]
    code, out = run(capsys, ["sbracket", "--algebra", files["alg"],
                             "--tube", "pt:t", "--rlen", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["rep"]["dims"] == {"0": 3, "c": 3}
    assert data["position"]["rlen"] == 3


def test_generic_and_endolength(files, capsys):
    code, out = run(capsys, ["generic", "--algebra", files["alg"]])
    assert code == 0
    data = json.loads(out)
    assert data["rep"]["arrows"]["x2"] == [["t"]]
    code, out = run(capsys, ["endolength", "--algebra", files["alg"]])
    assert code == 0
    data = json.loads(out)
    assert data["endolength"] == 2 and data["end_dim"] == 1


def test_peg_growth_command(files, capsys):
    code, out = run(capsys, ["peg-growth", "--algebra", files["alg"],
                             "--tube", "pt:t", "--rmax", "4", "--peg", "c"])
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [1, 2, 3, 4]
    assert all(data["monomorphism_witness"])


@pytest.mark.parametrize("command", ["peg-growth", "sbracket"])
@pytest.mark.parametrize("socle", ["3", "-1"])
def test_socle_index_out_of_range_is_a_domain_error(files, capsys, command, socle):
    # a Kronecker point tube has one mouth, so only --socle 0 is valid
    extra = ["--rmax", "2"] if command == "peg-growth" else ["--rlen", "2"]
    code, out = run(capsys, [command, "--algebra", files["alg"], "--tube", "pt:t",
                             "--socle", socle, *extra])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "domain"
    assert error["message"] == "socle index out of range 0..0"


def test_exit_codes(files, capsys):
    code, out = run(capsys, ["classify", "--rep", str(files["tmp"] / "nope.json")])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"
    code, out = run(capsys, ["classify", "--rep", files["mix"]])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_right_approximation_of_a_non_positive_module_reports_its_parts(capsys):
    # P(0) of (2, 2, 2) has defect -1: the domain error carries the dims of the
    # P and T parts of its split trisection as plain JSON objects
    rep = str(Path(__file__).parent / "data" / "golden" / "w222_p0.json")
    code, out = run(capsys, ["omega-right", "--seed", "1", "--rep", rep,
                             "--tubes", "arm:1", "--depth", "1"])
    assert code == 1
    assert out == (
        '{"canrep_format":1,"error":{"diagnostic":{'
        '"p_dims":{"0":1,"1.1":1,"2.1":1,"3.1":1,"c":2},'
        '"t_dims":{"0":0,"1.1":0,"2.1":0,"3.1":0,"c":0}},"kind":"domain",'
        '"message":"right approximation needs all summands of positive defect"}}\n')


def test_stuck_chain_reports_its_index(capsys):
    # budget 1 leaves no module of slope 0, the first ratio: the domain error
    # names index 0 as its diagnostic
    code, out = run(capsys, ["chain", "--algebra", str(GOLDEN / "w2222_f5.alg.json"),
                             "--ratios", "0,1", "--budget", "1", "--seed", "0"])
    assert code == 1
    assert out == (
        '{"canrep_format":1,"error":{"diagnostic":{"stuck_index":0},"kind":"domain",'
        '"message":"no constructible module of slope 0"}}\n')


@pytest.mark.parametrize("weight", [2, 3])
def test_single_arm_tube_is_rejected_up_front(tmp_path, capsys, weight):
    alg_path = tmp_path / "line.json"
    alg_path.write_text(json.dumps(canonical_algebra(F5, [weight], []).spec()))
    code, out = run(capsys, ["tube-simples", "--algebra", str(alg_path), "--tube", "arm:1"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "domain"
    assert "single-arm" in error["message"]


def test_slope_commands(tmp_path, capsys):
    alg = canonical_algebra(F5, [2, 2, 2, 2], [2, 3])
    alg_path = tmp_path / "tub.json"
    alg_path.write_text(json.dumps(alg.spec()))
    s = simple_at(alg, "1.1")
    rep_path = tmp_path / "mid.json"
    rep_path.write_text(json.dumps(rep_to_json(s)))
    code, out = run(capsys, ["slope", "--algebra", str(alg_path),
                             "--rep", str(rep_path)])
    assert code == 0
    data = json.loads(out)
    assert data["slope"] == "1" and data["family"] == "middle"
    code, out = run(capsys, ["slope", "--algebra", str(alg_path),
                             "--rep", str(rep_path), "--format", "tsv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("dim_vector")
    assert lines[1].endswith("middle")
    # slope-check between two middles passes
    code, out = run(capsys, ["slope-check", "--seed", "0",
                             "--algebra", str(alg_path),
                             "--source", str(rep_path), "--target", str(rep_path)])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_format_is_a_slope_option_only(files):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--rep", files["pc"], "--format", "tsv"])
    assert exc.value.code == 2


def test_chain_command(tmp_path, capsys):
    alg = canonical_algebra(F5, [2, 2, 2, 2], [2, 3])
    alg_path = tmp_path / "tub.json"
    alg_path.write_text(json.dumps(alg.spec()))
    code, out = run(capsys, ["chain", "--seed", "0", "--algebra", str(alg_path),
                             "--ratios", "0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["slopes"] == ["0", "1"]
    assert len(data["modules"]) == 2


KRON_F5 = '{"field": {"kind": "Fp", "p": 5}, "weights": [], "params": []}'
KRON_QT = '{"field": {"kind": "Qt"}, "weights": [], "params": []}'
KRON_F5T = '{"field": {"kind": "Fpt", "p": 5}, "weights": [], "params": []}'


def _rep_text(algebra=KRON_F5, dims='{"0": 1, "c": 1}', arrows="{}"):
    return f'{{"algebra": {algebra}, "dims": {dims}, "arrows": {arrows}}}'


@pytest.mark.parametrize("text, where", [
    ("[1, 2]", "rep"),                                  # top level is not an object
    ("7", "algebra"),                                   # an algebra file holding a number
    (_rep_text(dims='{"0": "x"}'), "rep"),              # a dimension that is not an integer
    (_rep_text(algebra="7"), "rep"),                    # an inline algebra that is a number
    (_rep_text(arrows="[1]"), "rep"),                   # arrows that are not an object
    (_rep_text(algebra='{"field": {"kind": "Fp", "p": "x"}}'), "rep"),  # modulus not a number
    (_rep_text(arrows='{"x1": 5}'), "rep"),             # a matrix that is not a list of rows
    (_rep_text(algebra='{"field": {"kind": "Fp", "p": 5}, "weights": ["x"]}'), "rep"),
    (_rep_text(dims='{"zz": 1, "c": 1}'), "rep"),      # a dimension at a vertex the algebra lacks
    (_rep_text(dims='{"0": 1.5, "c": 1}'), "rep"),     # a dimension that is a fraction
    (_rep_text(dims='{"0": true, "c": 1}'), "rep"),    # a dimension that is a bool
    (_rep_text(dims='{"0": -1, "c": 1}'), "rep"),      # a negative dimension
    (_rep_text(algebra='{"field": {"kind": "Fp", "p": 5}, "weights": [true, 2]}'), "rep"),
    ("arm:x", "tube"),                                  # an arm label that is not a number
    ("arm:", "tube"),                                   # an arm label that is missing
    ("arm:1.5", "tube"),                                # an arm label that is not an integer
    ("foo", "tube"),                                    # neither the arm: nor the pt: prefix
    ("pt", "tube"),                                     # a prefix without its colon
    ("foo", "ratios"),                                  # a slope that is not a number
    ("1/", "ratios"),                                   # a fraction without its denominator
    ("0,1/0", "ratios"),                                # a zero denominator after a good slope
    ("nan", "ratios"),                                  # a float word that is no rational
    ("", "ratios"),                                     # a list that names no slope
    (" , ", "ratios"),                                  # blank items only
    ("", "partition-tubes"),                            # a list that names no tube
    (" , ", "partition-tubes"),
    ("", "omega-left"),
    (" , ", "omega-right"),
    ("zz", "peg"),                                      # a --peg that names no vertex
    ("", "peg"),
    (_rep_text().replace('"dims"', '"dimz"'), "hom"),   # a representation without dims
    (KRON_F5, "decompose"),                             # an algebra spec given as the module
    (_rep_text(KRON_QT, arrows='{"x1": [["(t)/(0)"]]}'), "rep"),  # a zero polynomial denominator
    (_rep_text(KRON_QT, arrows='{"x1": [["1/0"]]}'), "rep"),      # a zero rational denominator
    (_rep_text(KRON_F5T, arrows='{"x1": [["1/2"]]}'), "rep"),     # a fraction over F_p(t)
    ('{"field": {"kind": "Fp", "p": 5.9}, "weights": [], "params": []}', "algebra"),
    ('{"field": {"kind": "Fp", "p": true}, "weights": [], "params": []}', "algebra"),
    ('{"field": {"kind": "Fpt", "p": 5.9}, "weights": [], "params": []}', "algebra"),
    ('{"field": {"kind": "Fpt", "p": true}, "weights": [], "params": []}', "algebra"),
], ids=["rep-array", "algebra-number", "bad-dims", "inline-algebra-number",
        "arrows-array", "modulus-string", "matrix-number", "weight-string", "unknown-vertex",
        "dim-fraction", "dim-bool", "dim-negative", "weight-bool",
        "arm-letter", "arm-empty", "arm-fraction", "foo", "pt",
        "ratio-word", "ratio-no-denominator", "ratio-zero-denominator", "ratio-nan",
        "ratios-empty", "ratios-blank", "partition-tubes-empty", "partition-tubes-blank",
        "omega-left-tubes-empty", "omega-right-tubes-blank", "peg-unknown-vertex", "peg-empty",
        "no-dims", "algebra-as-rep", "qt-zero-poly-denominator", "qt-zero-denominator",
        "fpt-fraction", "fp-modulus-float", "fp-modulus-bool", "fpt-modulus-float",
        "fpt-modulus-bool"])
def test_malformed_json_is_a_parse_error(files, capsys, text, where):
    bad = files["tmp"] / "bad.json"
    bad.write_text(text)
    if where == "rep":
        argv = ["classify", "--rep", str(bad)]
    elif where == "tube":
        argv = ["tube-simples", "--algebra", files["alg"], "--tube", text]
    elif where == "ratios":
        tubular = files["tmp"] / "tub.json"
        tubular.write_text(json.dumps(canonical_algebra(F5, [2, 2, 2, 2], [2, 3]).spec()))
        argv = ["chain", "--seed", "1", "--algebra", str(tubular), "--ratios", text]
    elif where in ("partition-tubes", "omega-left", "omega-right"):
        argv = [where, "--seed", "1", "--rep", files["mix"], "--tubes", text]
        argv += [] if where == "partition-tubes" else ["--depth", "1"]
    elif where == "peg":
        argv = ["peg-growth", "--algebra", files["alg"], "--tube", "pt:t", "--rmax", "1",
                "--peg", text]
    elif where == "hom":
        argv = ["hom", "--source", files["pc"], "--target", str(bad)]
    elif where == "decompose":
        argv = ["decompose", "--seed", "1", "--algebra", files["alg"], "--rep", str(bad)]
    else:
        argv = ["classify", "--rep", files["pc"], "--algebra", str(bad)]
    code, out = run(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def _golden_over(tmp_path, p):
    """kron_regular.json with its embedded field's modulus replaced by p."""
    data = json.loads((GOLDEN / "kron_regular.json").read_text())
    data["algebra"]["field"]["p"] = p
    path = tmp_path / f"kron_regular_p{p}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_a_huge_modulus_is_refused_at_once(tmp_path, capsys):
    code, out = run(capsys, ["classify", "--rep", _golden_over(tmp_path, 2**61 - 1)])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


@pytest.mark.parametrize("command", ["hom", "ext"])
def test_a_target_over_another_algebra_is_refused(tmp_path, capsys, command):
    source = str(GOLDEN / "kron_regular.json")
    code, out = run(capsys, [command, "--source", source, "--target", _golden_over(tmp_path, 7)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "parse"
    assert '"p": 7' in error["message"] and '"p": 5' in error["message"]
    # an embedded algebra that cannot be built fails as it does without a given one
    code, out = run(capsys, [command, "--source", source, "--target", _golden_over(tmp_path, 6)])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "domain",
                                        "message": "modulus 6 is not a prime < 2^31"}
    code, out = run(capsys, [command, "--source", source, "--target", _golden_over(tmp_path, 5)])
    assert code == 0


SUBCOMMANDS = ["classify", "defect", "decompose", "hom", "ext", "tau", "tube-simples",
               "sbracket", "split-trisect", "partition-tubes", "omega-left", "omega-right",
               "generic", "endolength", "peg-growth", "slope", "slope-check", "chain"]


def _subparsers():
    return next(a.choices for a in build_parser()._actions if a.dest == "command")


def test_each_subcommand_is_declared_once_in_order():
    assert list(HANDLERS) == SUBCOMMANDS
    assert list(_subparsers()) == SUBCOMMANDS


def test_seed_is_required_exactly_where_declared():
    seeded = {name for name, p in _subparsers().items()
              if next(a for a in p._actions if a.dest == "seed").required}
    assert seeded == {"decompose", "split-trisect", "partition-tubes", "omega-right",
                      "slope-check", "chain"}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_0(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: canrep {name} ")


@pytest.mark.parametrize("label, degree", [("pt:t+1", 1), ("pt:t^2+1", 2)])
def test_a_point_label_over_qt_has_constant_coefficients(tmp_path, capsys, label, degree):
    # a k(t) label is a polynomial in t with coefficients in k: it gives the mouth
    # of its tube, and a coefficient that needs the field's own t is a parse error
    alg_path = tmp_path / "kron_qt.json"
    alg_path.write_text(KRON_QT)
    code, out = run(capsys, ["tube-simples", "--algebra", str(alg_path), "--tube", label])
    assert code == 0
    simples = json.loads(out)["simples"]
    assert [s["dims"] for s in simples] == [{"0": degree, "c": degree}]
    code, out = run(capsys, ["tube-simples", "--algebra", str(alg_path), "--tube", "pt:(t)"])
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "parse", "message": "bad rational 't'"}


def test_factoring_over_fpt_is_a_domain_error(tmp_path, capsys):
    # S_t (+) S_{t+1} over F_5(t): the minimal polynomial of x2 has degree 2, which
    # no backend factors over F_p(t), so the splitter reports no certified leaf
    rep_path = tmp_path / "diag.json"
    rep_path.write_text(_rep_text(KRON_F5T, '{"0": 2, "c": 2}',
                                  '{"x1": [["1", "0"], ["0", "1"]], '
                                  '"x2": [["t", "0"], ["0", "t+1"]]}'))
    alg_path = tmp_path / "kron_f5t.json"
    alg_path.write_text(KRON_F5T)
    for argv in (["decompose", "--seed", "0", "--rep", str(rep_path)],
                 ["tube-simples", "--algebra", str(alg_path), "--tube", "pt:t^2+2"]):
        code, out = run(capsys, argv)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "domain", "message": "no factorization backend for degree 2 over F5(t)"}
