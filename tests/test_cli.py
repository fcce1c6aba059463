import copy
import json
import time

import pytest

from vlsidesk import cli, interconnect
from vlsidesk.device import MosDevice
from vlsidesk.errors import QuantityError, VlsiError
from vlsidesk.units import parse_quantity

from conftest import CASES_DIR, load_case


def write_case(tmp_path, doc, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


RING_CASE = {
    "schema": 1,
    "analysis": "ring_analyze",
    "params": {"stages": [["50n", "50n"], ["40n", "60n"], ["50n", "50n"],
                          ["60n", "40n"], ["60n", "40n"]]},
    "meta": {"label": "五"},
}


def test_run_ring_case(tmp_path, capsys):
    rc = cli.main(["run", write_case(tmp_path, RING_CASE)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["period"]["value"] == pytest.approx(5e-7)
    assert out["results"]["duty"]["value"] == pytest.approx(0.52)
    assert out["results"]["period"]["unit"] == "s"


def test_run_is_deterministic(tmp_path, capsys):
    path = write_case(tmp_path, RING_CASE)
    cli.main(["run", path])
    first = capsys.readouterr().out
    cli.main(["run", path])
    second = capsys.readouterr().out
    assert first == second


def test_table_format(tmp_path, capsys):
    rc = cli.main(["run", write_case(tmp_path, RING_CASE), "--format", "table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "analysis: ring_analyze" in out
    assert "duty" in out and "0.52" in out


def test_table_format_lists_diagnostics_as_notes(tmp_path, capsys):
    # optimize_path reports each candidate stage count as a diagnostic; the
    # values are worked out in test_effort's inverting-polarity test
    doc = {"schema": 1, "analysis": "optimize_path", "meta": {"label": "odd stage count"},
           "params": {"stages": [{"g": 1, "p": 1}], "c_in": 1, "c_load": 8,
                      "polarity": "inverting", "p_inv": 0.5}}
    rc = cli.main(["run", write_case(tmp_path, doc), "--format", "table"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "analysis: optimize_path\n"
        "label:    odd stage count\n"
        "\n"
        "  n                        3  stages\n"
        "  added_inverters          2\n"
        "  d                        8  FO1\n"
        "  f_hat                    2\n"
        "  stage_caps       [1, 2, 4]  C_g\n"
        "\n"
        "  note: candidate N=1: D=9\n"
        "  note: candidate N=3: D=8\n")


def test_voltage_scaling_below_twice_the_threshold_reports_infinite():
    # at v_to = 1.5 <= 2 v_t = 2 no crowbar current is left, so the
    # short-circuit reduction is infinite; switching scales as (3 / 1.5)^2 = 4
    report = cli.run_case({"schema": 1, "analysis": "voltage_scaling_factors",
                           "params": {"v_from": 3, "v_to": 1.5, "v_t": 1}})
    assert report["results"] == {
        "switching_reduction": {"value": 4.0, "unit": "x"},
        "short_circuit_reduction": {"value": "infinite", "unit": "x"}}
    assert '"value": "infinite"' in cli.render_json(report)


def test_euler_probe_exits_2_within_a_second(tmp_path, capsys):
    # 12 inputs, within EULER_INPUT_LIMIT, but 51 switches per network: the
    # search ran 14-23 s to exit 0 before it was bounded by its work
    doc = {"schema": 1, "analysis": "common_euler_ordering", "params": {
        "expr": "(GCKL+HF+J+IH+JKHC+JCFK+E+CK+JKEH+HDGJ+DFA+JAGE+I+JEKD+LHFI+KDIJ)(E+F+G)"}}
    t0 = time.perf_counter()
    rc = cli.main(["run", write_case(tmp_path, doc)])
    assert time.perf_counter() - t0 < 1.0
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert json.loads(cap.err)["error"] == {
        "code": "analysis_error",
        "message": "SizeError: the Euler search examined more than 500000 edges"}


def test_format_option_forms(tmp_path, capsys):
    path = write_case(tmp_path, RING_CASE)
    outs = []
    for argv in (["run", path, "--format", "table"], ["run", "--format=table", path],
                 ["run", "--format", "table", path]):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("analysis: ring_analyze") and len(set(outs)) == 1


@pytest.mark.parametrize("argv", [
    [], ["warp"], ["run"], ["run", "a.json", "b.json"], ["validate"], ["list", "x"],
    ["run", "a.json", "--format"], ["run", "a.json", "--format", "yaml"],
    ["run", "a.json", "--formats=json"], ["validate", "a.json", "--format", "json"],
])
def test_malformed_command_line_exits_1_with_json_error(capsys, argv):
    assert cli.main(argv) == 1
    cap = capsys.readouterr()
    err = json.loads(cap.err)["error"]
    assert cap.out == "" and err["code"] == "usage_error" and err["message"]


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "x.json", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("usage: vlsidesk run CASE") and cap.err == ""


def test_registry_entries_keep_their_shape():
    for name, entry in cli.REGISTRY.items():
        assert entry["schema"]["type"] == "object" and callable(entry["run"])
    props = cli.REGISTRY["output_slew"]["schema"]["properties"]
    assert list(props)[:3] == ["polarity", "k_prime", "vt0"] and "lambda" in props
    assert cli.REGISTRY["inverter_vtc"]["schema"]["properties"]["config"]["enum"] == [
        "cmos", "depletion_load", "resistive_load", "pseudo_nmos"]


@pytest.mark.parametrize("fields", [{"vt0": 1.5}, {"w": 100}])
def test_output_slew_builds_its_device_from_the_given_fields(fields):
    params = {"c_load": "10p", "v_dd": 3.0, "method": "acc", **fields}
    report = cli.run_case({"schema": 1, "analysis": "output_slew", "params": params})
    t = interconnect.output_slew(MosDevice(**fields), c_load=10e-12, v_dd=3.0, method="acc")
    assert report["results"]["t"]["value"] == t
    assert t != interconnect.output_slew(MosDevice(), c_load=10e-12, v_dd=3.0, method="acc")


def test_unknown_analysis_exits_1(tmp_path, capsys):
    doc = {"schema": 1, "analysis": "warp_drive", "params": {}}
    rc = cli.main(["run", write_case(tmp_path, doc)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "invalid_case"


def test_missing_required_field_named(tmp_path, capsys):
    doc = {"schema": 1, "analysis": "ring_design",
           "params": {"n_stages": 5, "period": "2n"}}
    rc = cli.main(["validate", write_case(tmp_path, doc)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "duty" in err["error"]["message"]


def test_validate_ok(tmp_path, capsys):
    rc = cli.main(["validate", write_case(tmp_path, RING_CASE)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_bad_json_exits_1(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["run", str(p)]) == 1


def test_unreadable_file_exits_1(tmp_path):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("raw", [
    b'{"schema": 1, "analysis": "gray_code", "params": {"n_bits": 3}, '
    b'"meta": {"label": "\xff"}}',
    b'{"schema": 1, "analysis": "gray_code", "params": {"n_bits": 1' + b"0" * 5000 + b'}}',
], ids=["not-utf8", "5001-digit-integer"])
def test_undecodable_case_file_exits_1(tmp_path, capsys, raw):
    p = tmp_path / "raw.json"
    p.write_bytes(raw)
    rc = cli.main(["run", str(p)])
    cap = capsys.readouterr()
    assert rc == 1 and cap.out == ""
    assert json.loads(cap.err)["error"]["code"] == "invalid_case"


def test_defect_in_an_adapter_exits_3(tmp_path, capsys, monkeypatch):
    def broken(params):
        raise ZeroDivisionError("float division by zero")
    monkeypatch.setitem(cli.REGISTRY["ring_analyze"], "run", broken)
    rc = cli.main(["run", write_case(tmp_path, RING_CASE)])
    cap = capsys.readouterr()
    assert rc == 3 and cap.out == ""
    err = json.loads(cap.err)["error"]
    assert err["code"] == "internal_error"
    assert err["message"] == "ZeroDivisionError: float division by zero"
    assert "broken" in err["traceback"]


def test_compiled_check_never_accepts_silently(tmp_path, capsys, monkeypatch):
    # a compiled walk that rejects a case jsonschema accepts is a defect
    monkeypatch.setattr(cli, "_walk", lambda name: cli._accept if name is None else cli._refuse)
    rc = cli.main(["run", write_case(tmp_path, RING_CASE)])
    cap = capsys.readouterr()
    assert rc == 3 and cap.out == ""
    assert json.loads(cap.err)["error"]["message"].startswith("AssertionError: ")


def test_violation_verdicts_still_exit_0(tmp_path, capsys):
    # a failing timing check is a successful analysis; the verdict is data
    case = load_case("timing_pipeline_stage_check")
    rc = cli.main(["run", write_case(tmp_path, case)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    edge = out["results"]["edges"]["value"][0]
    assert edge["setup_violation"] and edge["hold_violation"]


def test_analysis_error_exits_2(tmp_path, capsys):
    doc = {"schema": 1, "analysis": "ring_design",
           "params": {"n_stages": 5, "period": "2n", "duty": 0.05}}
    rc = cli.main(["run", write_case(tmp_path, doc)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "analysis_error"


def test_wrong_schema_version_rejected(tmp_path):
    doc = dict(RING_CASE, schema=2)
    assert cli.main(["validate", write_case(tmp_path, doc)]) == 1


def test_extra_param_rejected(tmp_path):
    doc = {"schema": 1, "analysis": "gray_code",
           "params": {"n_bits": 3, "bogus": 1}}
    assert cli.main(["validate", write_case(tmp_path, doc)]) == 1


def test_si_suffix_strings_accepted(tmp_path, capsys):
    doc = {"schema": 1, "analysis": "wire_rc",
           "params": {"length": "9", "width": "0.375m",
                      "r_sheet": 0.025, "c_fringe_per_edge": "50f",
                      "fringe_edges": 1}}
    rc = cli.main(["run", write_case(tmp_path, doc)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["r"]["value"] == pytest.approx(600.0)


def test_bad_quantity_string_exits_1(tmp_path):
    doc = {"schema": 1, "analysis": "gray_code", "params": {"n_bits": 3}}
    doc["params"] = {"n_bits": 3}
    ok = cli.main(["validate", write_case(tmp_path, doc)])
    assert ok == 0
    doc2 = {"schema": 1, "analysis": "wire_rc",
            "params": {"length": "9zz", "width": 1, "r_sheet": 1}}
    rc = cli.main(["run", write_case(tmp_path, doc2)])
    assert rc == 1  # a bad quantity string is malformed input


def test_list_command(capsys):
    rc = cli.main(["list"])
    assert rc == 0
    listing = json.loads(capsys.readouterr().out)
    assert "ring_analyze" in listing
    assert "elmore" in listing
    assert listing["gray_code"]["properties"]["n_bits"]["type"] == "integer"


def test_list_carries_defs_only_where_network_recurses(capsys):
    import jsonschema
    assert cli.main(["list"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [k for k, v in listing.items() if "$defs" in v] == \
        ["derive_template", "evaluate_network"]
    assert list(cli._DEFS) == ["network"]
    for schema in listing.values():
        jsonschema.Draft202012Validator.check_schema(schema)


def test_float_formatting_six_significant_digits(tmp_path, capsys):
    doc = {"schema": 1, "analysis": "charge_share_voltage",
           "params": {"c_out": 1.0, "c_exposed": [2.0], "v_dd": 1.0}}
    cli.main(["run", write_case(tmp_path, doc)])
    out = capsys.readouterr().out
    assert "0.333333" in out


def test_every_shipped_case_validates_and_runs():
    paths = sorted(CASES_DIR.glob("*.json"))
    assert len(paths) > 50
    for p in paths:
        case = load_case(p.stem)
        assert cli.validate_case(case) == case["analysis"]
        report = cli.run_case(case)
        assert report["analysis"] == case["analysis"]


def test_shipped_cases_render_identically_twice():
    for p in sorted(CASES_DIR.glob("*.json"))[:10]:
        case = load_case(p.stem)
        a = cli.render_json(cli.run_case(case))
        b = cli.render_json(cli.run_case(case))
        assert a == b


# --- quantity parsing at the schema boundary ------------------------------

def run_text(tmp_path, capsys, text):
    """Run a case file holding ``text`` verbatim; return (exit, stdout, stderr)."""
    p = tmp_path / "raw.json"
    p.write_text(text)
    rc = cli.main(["run", str(p)])
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   "1e400", "1e308k", 10**400],
                         ids=["inf", "-inf", "nan", "1e400", "1e308k", "10**400"])
def test_parse_quantity_rejects_non_finite(value):
    with pytest.raises(QuantityError):
        parse_quantity(value)


def test_parse_quantity_accepts_si_strings():
    assert parse_quantity("500m") == 0.5
    assert parse_quantity(" 20f ") == pytest.approx(20e-15)
    assert parse_quantity(3) == 3.0 and isinstance(parse_quantity(3), float)


@pytest.mark.parametrize("literal",
                         ["1e400", "-1e400", "NaN", "Infinity", "1" + "0" * 400],
                         ids=["1e400", "-1e400", "NaN", "Infinity", "10**400"])
def test_non_finite_json_number_exits_1(tmp_path, capsys, literal):
    text = ('{"schema": 1, "analysis": "wire_rc", '
            f'"params": {{"length": {literal}, "width": 1, "r_sheet": 1}}}}')
    rc, out, err = run_text(tmp_path, capsys, text)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "invalid_case"


DEFECT_CASES = [
    ("address_decode", {"chips": 1, "banks": 1, "rows": 4, "cols": 4,
                        "address": "zz"}, 1, "invalid_case"),
    ("buffered_wire_delay", {"wire": {"length": 1, "width": 1, "r_sheet": 1},
                             "n_buffers": [], "buffer": {"fixed_delay": "1n"}},
     2, "analysis_error"),
    ("short_circuit_power", {"k": 1, "v_t": 0, "v_dd": 1e308, "f_clk": 1,
                             "tau_in": 1, "beta": 1}, 2, "analysis_error"),
    ("short_circuit_power", {"k": "1e300", "v_t": 0, "v_dd": "1e100", "f_clk": 1,
                             "tau_in": 1, "beta": 1}, 2, "analysis_error"),
    ("latch_constraints", {"n_stages": 2, "duty": "abc"}, 1, "invalid_case"),
    ("pipeline_metrics", {"stage_delays": [1], "target_period": 1e-310},
     2, "analysis_error"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"series": 5}},
     1, "invalid_case"),
    ("elmore", {"root": "s", "edges": [[["x"], "a", 1]], "caps": {"a": 1}, "sink": "a"},
     1, "invalid_case"),
    ("lfsr", {"powers": [0, -3]}, 2, "analysis_error"),
    ("lfsr", {"powers": [0, 3, 28], "seed": 1}, 2, "analysis_error"),
    ("nand_nor_effort", {"n": 10**400, "mu": 2}, 1, "invalid_case"),
    ("ring_design", {"n_stages": 10**400 + 1, "period": 1, "duty": 0.5}, 1, "invalid_case"),
    ("adiabatic_energy", {"r_on": 1e300, "c": 1e300, "v_cmax": 1, "t_ramp": 1e-300},
     2, "analysis_error"),
    ("voltage_scaling_factors", {"v_from": 1e200, "v_to": 1, "v_t": 0.1},
     2, "analysis_error"),
    ("derive_template",
     {"pdn": {"parallel": [{"input": f"x{k}"} for k in range(22)]},
      "pun": {"series": [{"input": f"x{k}", "width": 2} for k in range(22)]}},
     2, "analysis_error"),
    ("inverter_vtc", {"config": "resistive_load", "v_dd": 2.5, "k_p": "60u", "vt_p": 0.5,
                      "r_load": 0}, 2, "analysis_error"),
    ("bias_point", {"k_prime": "20u", "vt0": 0.5, "w": 5, "l": 1, "v_gs": 1.2,
                    "v_ds": -0.2}, 2, "analysis_error"),
    ("inverter_vtc", {"config": "resistive_load", "v_dd": 2.5, "k_p": "60u", "vt_p": 0.5,
                      "r_load": "20k", "k_n": "1m"}, 2, "analysis_error"),
    ("derive_template", {"pdn": {"input": "a", "width": "1e-320"},
                         "pun": {"input": "a", "width": "1e-320"}}, 2, "analysis_error"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"input": "a", "width": 2},
                         "reference": {"pdn": {"input": "a", "width": "1e-320"},
                                       "pun": {"input": "a", "width": 2}}},
     2, "analysis_error"),
    ("delay_bounds", {"expr": "a*b", "mu": 1e-308}, 2, "analysis_error"),
    ("delay_bounds", {"expr": "a*b", "w_n": 1e-308}, 2, "analysis_error"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"input": 1e-308}}, 1, "invalid_case"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"input": "a"},
                         "reference": {"pdn": {"input": "a"}}}, 1, "invalid_case"),
    ("derive_template", {"pdn": {"parallel": [{"input": "a", "width": "1e-320"},
                                              {"input": "b"}]},
                         "pun": {"series": [{"input": "a"}, {"input": "b"}]}},
     2, "analysis_error"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"input": "a"}, "mu": 1e308},
     2, "analysis_error"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"input": "b"}}, 2, "analysis_error"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"pullup_load": 0}},
     2, "analysis_error"),
    ("buffered_wire_delay", {"wire": {"length": 1, "width": 1, "r_sheet": 1},
                             "n_buffers": 1, "buffer": {"foo": 1}}, 1, "invalid_case"),
    ("buffered_wire_delay", {"wire": {"length": 1, "width": 1, "r_sheet": 1},
                             "n_buffers": 1, "buffer": {"fixed_delay": 1, "r_drive": 1}},
     1, "invalid_case"),
    ("derive_template", {"pdn": {"input": "a"}, "pun": {"input": "a"}, "mu": 1e-320},
     2, "analysis_error"),
    ("latch_constraints", {"n_stages": 1e308, "duty": 0.4}, 2, "analysis_error"),
    ("gray_code", {"n_bits": 65}, 2, "analysis_error"),
    ("scale_factors", {"mode": "general", "s": "1e300", "m": 4}, 2, "analysis_error"),
    ("bus_split", {"n_modules": 1e308, "m_buses": 12}, 2, "analysis_error"),
    ("mos_capacitances", {"w": 1, "l": 1, "region": "cutoff", "c_ox": "1m", "n_d": 1.5,
                          "n_a_sub": 1e16, "y": "1u"}, 2, "analysis_error"),
    ("design_fork", {"c_in_total": 1, "branch_load": 1e308}, 2, "analysis_error"),
    ("voltage_scaling_factors", {"v_from": 1.0, "v_to": 1e-320, "v_t": 0},
     2, "analysis_error"),
    ("output_slew", {"c_load": "10p", "v_dd": 3, "method": "diff", "k_prime": "50u",
                     "vt0": 0.7, "w": 1e-320, "l": 1}, 2, "analysis_error"),
    ("lfsr", {"powers": [0, 3, 2**70], "seed": 1}, 2, "analysis_error"),
    ("lfsr", {"coeffs": [1] * 258}, 2, "analysis_error"),
    ("lfsr", {"powers": [0, 1, 3], "coeffs": [1, 1, 0, 1]}, 1, "invalid_case"),
    ("wire_rc", {"length": 1e308, "width": 1e-10, "r_sheet": 1}, 2, "analysis_error"),
    ("pipeline_metrics", {"stage_delays": [1e-320]}, 2, "analysis_error"),
    ("path_delay", {"stages": [{"g": 1e308, "p": 1}], "c_in": 1e-300, "c_load": 1e300},
     2, "analysis_error"),
    ("ripple_chain", {"xy_to_s": 1e308, "xy_to_bout": 1e308, "bin_to_s": 1e308,
                      "bin_to_bout": 1e308, "n_blocks": 3}, 2, "analysis_error"),
    ("switching_power", {"loads": [{"c": 1e308, "beta": 2}], "v_dd": 1e308, "f_clk": 1},
     2, "analysis_error"),
    ("optimize_path", {"stages": [{"g": 2, "p": 4}], "c_in": 1, "c_load": 300, "rho": 1},
     2, "analysis_error"),
    ("optimize_path", {"stages": [{"g": 2, "p": 4}], "c_in": 1, "c_load": 300, "rho": "-0"},
     2, "analysis_error"),
    ("design_fork", {"c_in_total": 20, "branch_load": 1000, "rho": 1}, 2, "analysis_error"),
    ("design_fork", {"c_in_total": 20, "branch_load": 1000, "rho": "-0"}, 2, "analysis_error"),
    ("optimize_path", {"stages": [{"g": 2, "p": 4}], "c_in": 1, "c_load": 1e300,
                       "rho": 1.0000001}, 2, "analysis_error"),
    ("design_fork", {"c_in_total": 1, "branch_load": 1e300, "rho": 1.0000001},
     2, "analysis_error"),
    ("design_fork", {"c_in_total": 20, "branch_load": 1000, "m": 2**70}, 2, "analysis_error"),
    ("optimize_path", {"stages": [{"g": 1e308, "p": 1}], "c_in": 1, "c_load": 300},
     2, "analysis_error"),
    ("buffered_wire_delay", {"wire": {"length": 9, "width": "375u", "r_sheet": 0.025},
                             "n_buffers": [0, 2**70],
                             "buffer": {"r_drive": 1000, "c_gate_in": "200f"}},
     2, "analysis_error"),
    ("cell_node_voltage", {"mode": "read_disturb",
                           "access": {"k_prime": "60u", "wl": 2, "vt": 1e308},
                           "pulldown": {"k_prime": "60u", "wl": 4, "vt": 0.5}, "v_dd": 2},
     2, "analysis_error"),
    ("cell_node_voltage", {"mode": "read_disturb",
                           "access": {"k_prime": "60u", "wl": 2, "vt": 0.5},
                           "pulldown": {"k_prime": "60u", "wl": 4, "vt": 0.5}, "v_dd": 1e308},
     2, "analysis_error"),
    ("cell_node_voltage", {"mode": "write",
                           "access": {"k_prime": "60u", "wl": 2, "vt": 0.5},
                           "pulldown": {"k_prime": "60u", "wl": 4, "vt": 0.5},
                           "pullup": {"k_prime": "30u", "wl": 1.5, "vt": 1e308}, "v_dd": 2},
     2, "analysis_error"),
    ("load_resistor_bound", {"access": {"k_prime": 1e-4, "wl": 1, "vt": 0.7},
                             "pulldown": {"k_prime": 1e308, "wl": 2, "vt": 0.7},
                             "v_dd": 1, "v_q_max": 0.4}, 2, "analysis_error"),
    ("switching_power", {"loads": [{"c": 1, "beta": 0.4}], "v_dd": 1, "f_clk": 1,
                         "compare_loads": [{"c": 0, "beta": 0.4}]}, 2, "analysis_error"),
    ("charge_share_voltage", {"c_out": 1, "c_exposed": [1], "v_dd": "-0"},
     2, "analysis_error"),
    ("design_fork", {"c_in_total": 1e10, "branch_load": 1e-320}, 2, "analysis_error"),
    ("design_fork", {"c_in_total": 20, "branch_load": 1000, "m": -1}, 2, "analysis_error"),
    ("path_delay", {"stages": [{"g": 1e-200, "p": 1}], "c_in": 1e200, "c_load": 1e-200},
     2, "analysis_error"),
    ("cell_node_voltage", {"mode": "write",
                           "access": {"k_prime": "60u", "wl": "1e-320", "vt": 0.5},
                           "pulldown": {"k_prime": "60u", "wl": 4, "vt": 0.5},
                           "pullup": {"k_prime": "30u", "wl": 1.5, "vt": 0.5}, "v_dd": 2},
     2, "analysis_error"),
    ("decoder_cost", {"stages": [{"kind": "nand", "count": 2}]}, 2, "analysis_error"),
]


@pytest.mark.parametrize("analysis,params,code,kind", DEFECT_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(DEFECT_CASES)])
def test_defect_inputs_end_in_json_error(tmp_path, capsys, analysis, params, code, kind):
    doc = {"schema": 1, "analysis": analysis, "params": params}
    t0 = time.perf_counter()
    rc = cli.main(["run", write_case(tmp_path, doc)])
    assert time.perf_counter() - t0 < 1.0
    cap = capsys.readouterr()
    assert rc == code and cap.out == ""
    assert json.loads(cap.err)["error"]["code"] == kind


INTEGRAL_FLOATS = [
    ("gray_code", {"n_bits": 3.0}, {"n_bits": 3}),
    ("lfsr", {"powers": [0, 1.0, 3.0], "seed": 1.0, "steps": 4.0},
     {"powers": [0, 1, 3], "seed": 1, "steps": 4}),
    ("ripple_chain", {"xy_to_s": 1, "xy_to_bout": 2, "bin_to_s": 1, "bin_to_bout": 1,
                      "n_blocks": 3.0},
     {"xy_to_s": 1, "xy_to_bout": 2, "bin_to_s": 1, "bin_to_bout": 1, "n_blocks": 3}),
]


@pytest.mark.parametrize("analysis,floats,ints", INTEGRAL_FLOATS,
                         ids=[c[0] for c in INTEGRAL_FLOATS])
def test_integral_floats_read_as_integers(analysis, floats, ints):
    a = cli.run_case({"schema": 1, "analysis": analysis, "params": floats})
    b = cli.run_case({"schema": 1, "analysis": analysis, "params": ints})
    assert a["results"] == b["results"]
    assert a["inputs"] == floats


def test_pipeline_tiny_target_runs_quickly(tmp_path, capsys):
    doc = {"schema": 1, "analysis": "pipeline_metrics",
           "params": {"stage_delays": ["1n"], "target_period": 1e-300}}
    t0 = time.perf_counter()
    rc = cli.main(["run", write_case(tmp_path, doc)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    n = json.loads(capsys.readouterr().out)["results"]["n_stages_needed"]["value"]
    assert n > 10**290


def test_latch_duty_accepts_si_string():
    base = {"schema": 1, "analysis": "latch_constraints",
            "params": {"n_stages": 2, "duty": 0.5, "deltas": [1, 2]}}
    si = copy.deepcopy(base)
    si["params"]["duty"] = "500m"
    assert cli.run_case(si)["results"] == cli.run_case(base)["results"]


def test_malformed_quantity_wins_over_analysis_error(tmp_path, capsys):
    # one delta for two stages alone is an analysis error (exit 2), but every
    # quantity is parsed before the analysis starts
    doc = {"schema": 1, "analysis": "latch_constraints",
           "params": {"n_stages": 2, "duty": 0.5, "deltas": [1],
                      "unbounded_uniform_delta": "2zz"}}
    assert cli.main(["run", write_case(tmp_path, doc)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "invalid_case"


def test_top_level_error_message_names_the_field():
    with pytest.raises(cli.CaseError) as e:
        cli.validate_case({"schema": 1, "analysis": "gray_code"})
    assert str(e.value) == \
        "case structure invalid at (top level): 'params' is a required property"
    with pytest.raises(cli.CaseError) as e:
        cli.validate_case({"schema": 1, "analysis": 5, "params": {}})
    assert str(e.value) == "case structure invalid at analysis: 5 is not of type 'string'"


NESTED_SI = [
    ("check_timing",
     {"period": 5e-9, "edges": [{"launch": "a", "capture": "b", "t_cq_max": 1e-10,
                                 "d_max": 2e-9, "t_setup": 5e-11}]},
     {"period": "5n", "edges": [{"launch": "a", "capture": "b", "t_cq_max": "100p",
                                 "d_max": "2n", "t_setup": "50p"}]}),
    ("signal_probability", {"expr": "a & b", "probabilities": {"a": 0.5, "b": 0.25}},
     {"expr": "a & b", "probabilities": {"a": "500m", "b": "250m"}}),
    ("switching_power", {"loads": [{"c": 1e-15, "beta": 0.5}], "v_dd": 1.2, "f_clk": 1e9},
     {"loads": [{"c": "1f", "beta": "500m"}], "v_dd": "1.2", "f_clk": "1G"}),
    ("noise_margins",
     {"driver": {"v_ol": 0.1, "v_oh": 1.1, "v_il": 0.4, "v_ih": 0.7},
      "receiver": {"v_ol": 0.1, "v_oh": 1.1, "v_il": 0.45, "v_ih": 0.65}},
     {"driver": {"v_ol": "100m", "v_oh": "1.1", "v_il": "400m", "v_ih": "700m"},
      "receiver": {"v_ol": "100m", "v_oh": "1.1", "v_il": "450m", "v_ih": "650m"}}),
    ("elmore", {"root": "s", "edges": [["s", "a", 1e3]], "caps": {"a": 1e-12}, "sink": "a"},
     {"root": "s", "edges": [["s", "a", "1k"]], "caps": {"a": "1p"}, "sink": "a"}),
    ("ring_analyze", {"stages": [[5e-8, 5e-8], [4e-8, 6e-8], [5e-8, 5e-8]]},
     {"stages": [["50n", "50n"], ["40n", "60n"], ["50n", "50n"]]}),
    ("access_sizing",
     {"fixed": {"k_prime": 1e-4, "vt0": 0.4, "bias": [1.2, 0.6, 0.0]},
      "unknown": {"k_prime": 4e-5, "vt0": 0.4, "lambda": 0.1, "bias": [1.2, 0.6, 0.0]}},
     {"fixed": {"k_prime": "100u", "vt0": "400m", "bias": ["1.2", "600m", 0]},
      "unknown": {"k_prime": "40u", "vt0": "400m", "lambda": "100m",
                  "bias": ["1.2", "600m", 0]}}),
    ("derive_template",
     {"pdn": {"series": [{"input": "a", "width": 2.0}, {"input": "b", "width": 2.0}]},
      "pun": {"pullup_load": 0.5}},
     {"pdn": {"series": [{"input": "a", "width": "2"}, {"input": "b", "width": "2"}]},
      "pun": {"pullup_load": "500m"}}),
]


@pytest.mark.parametrize("analysis,numbers,strings", NESTED_SI,
                         ids=[c[0] for c in NESTED_SI])
def test_nested_si_strings_match_numbers(analysis, numbers, strings):
    a = cli.run_case({"schema": 1, "analysis": analysis, "params": numbers})
    b = cli.run_case({"schema": 1, "analysis": analysis, "params": strings})
    assert json.loads(cli.render_json(a))["results"] == \
        json.loads(cli.render_json(b))["results"]


def test_report_inputs_keep_si_strings():
    for analysis, _, strings in NESTED_SI:
        case = {"schema": 1, "analysis": analysis, "params": strings}
        before = copy.deepcopy(case)
        report = cli.run_case(case)
        assert case == before  # parsing works on a copy
        assert report["inputs"] == before["params"]
    report = cli.run_case(RING_CASE)
    assert report["inputs"]["stages"][0] == ["50n", "50n"]


# --- every adapter runs ---------------------------------------------------

INLINE_MINIMAL = {
    "elmore": {"root": "s", "edges": [["s", "a", "1k"], ["a", "b", 2000]],
               "caps": {"a": "1p", "b": 2e-12}, "sink": "b"},
    "evaluate_network": {
        "network": {"series": [{"input": "a", "width": "2"},
                               {"parallel": [{"input": "b"}, {"input": "c"}]}]},
        "assignment": {"a": 1, "b": 0, "c": 1}},
    "threshold_voltage": {"vt0": "0.7", "v_sb": 2, "gamma": "400m"},
}


def _minimal_params(analysis):
    """Required params only, taken from the first corpus case that runs
    ``analysis`` (plus the keys of the ``oneOf`` branch it satisfies)."""
    if analysis in INLINE_MINIMAL:
        return INLINE_MINIMAL[analysis]
    schema = cli.REGISTRY[analysis]["schema"]
    for p in sorted(CASES_DIR.glob("*.json")):
        case = load_case(p.stem)
        if case["analysis"] != analysis:
            continue
        keys = set(schema["required"])
        for branch in schema.get("oneOf", []):
            if set(branch["required"]) <= set(case["params"]):
                keys |= set(branch["required"])
                break
        return {k: v for k, v in case["params"].items() if k in keys}
    raise AssertionError(f"no corpus case runs {analysis}")


@pytest.mark.parametrize("analysis", sorted(cli.REGISTRY))
def test_every_adapter_runs_minimal_case(analysis):
    case = {"schema": 1, "analysis": analysis, "params": _minimal_params(analysis)}
    try:
        report = cli.run_case(case)
    except (cli.CaseError, VlsiError):
        assert analysis in ("inverter_vtc", "mos_capacitances")  # need optional params
        return
    assert report["inputs"] == case["params"]
    assert report["results"]
    cli.render_json(report)
