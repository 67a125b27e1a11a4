import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from sepfair.cli import main
from sepfair.exact_mms import _max_share, exact_mms, pie_exact_mms
from sepfair.instances import Instance, save_instance
from sepfair.valuations import Interval, Topology

from helpers import THIRDS, random_separation, random_valuation

HERE = os.path.dirname(__file__)
THIRDS_PATH = os.path.join(HERE, os.pardir, "instances", "thirds.json")
UNI2_PATH = os.path.join(HERE, os.pardir, "instances", "uniform2.json")
UNI2_PIE_PATH = os.path.join(HERE, os.pardir, "instances",
                             "uniform2_pie.json")
SRC = os.path.join(HERE, os.pardir, "src")
SUBCOMMANDS = ("mms-exact", "mms-approx", "decide", "allocate",
               "pie-decide", "check", "adversary")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_mms_exact_golden(capsys):
    code, out = run_cli(capsys, "mms-exact", "--instance", THIRDS_PATH,
                        "--n", "2")
    assert code == 0
    assert out["mms"] == "2/5"
    # round-trip: CLI output equals the library value bit-exactly
    assert F(out["mms"]) == exact_mms(THIRDS, 2, F(1, 3))[0]


def test_decide_greater_golden(capsys):
    code, out = run_cli(capsys, "decide", "--rel", "greater", "--r", "2/5",
                        "--instance", THIRDS_PATH)
    assert code == 0
    assert out["answer"] is False
    assert out["queries"] == 3


def test_decide_atleast_witness(capsys):
    code, out = run_cli(capsys, "decide", "--rel", "atleast", "--r", "2/5",
                        "--instance", THIRDS_PATH)
    assert code == 0
    assert out["answer"] is True
    assert out["queries"] <= 2
    assert out["witness"] == [{"left": "0", "right": "1/3"},
                              {"left": "2/3", "right": "1"}]


def test_allocate_equitable_golden(capsys):
    code, out = run_cli(capsys, "allocate", "--criterion", "eq",
                        "--epsilon", "1/1000", "--instance", UNI2_PATH)
    assert code == 0
    values = [F(item["value"]) for item in out["allocation"]]
    assert all(abs(v - F(2, 5)) <= F(1, 1000) for v in values)
    assert max(values) - min(values) <= F(1, 1000)


def test_allocate_mms_golden(capsys):
    code, out = run_cli(capsys, "allocate", "--criterion", "mms",
                        "--instance", THIRDS_PATH)
    assert code == 0
    values = sorted(F(item["value"]) for item in out["allocation"])
    assert values == [F(2, 5), F(3, 5)]


def test_allocate_ef(capsys):
    code, out = run_cli(capsys, "allocate", "--criterion", "ef",
                        "--instance", UNI2_PATH)
    assert code == 0
    values = [F(item["value"]) for item in out["allocation"]]
    assert all(v >= F(2, 5) - F(1, 10**6) for v in values)


def test_allocate_ordinal_cake(capsys):
    code, out = run_cli(capsys, "allocate", "--criterion", "ordinal",
                        "--instance", UNI2_PATH)
    assert code == 0
    values = [F(item["value"]) for item in out["allocation"]]
    share = (1 - 2 * F(1, 5)) / 3
    assert all(v >= share for v in values)


def test_allocate_ordinal_pie(capsys):
    code, out = run_cli(capsys, "allocate", "--criterion", "ordinal",
                        "--epsilon", "1/40", "--instance", UNI2_PIE_PATH)
    assert code == 0
    values = [F(item["value"]) for item in out["allocation"]]
    target = F(1, 3) - F(1, 10) - F(1, 40)
    assert all(v >= target for v in values)


def test_allocate_ordinal_pie_full_turn_threshold(capsys):
    """A threshold of 1 cannot be marked on [s, 1]: the cut that goes all
    the way round the pie is not the empty piece [s, s]."""
    assert main(["allocate", "--criterion", "ordinal", "--instance",
                 UNI2_PIE_PATH, "--thresholds", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "protocol failure: agent 0 cannot mark a piece worth 1\n"


def write_instance(tmp_path, topology, s, vs):
    path = tmp_path / "inst.json"
    save_instance(Instance(topology, s, tuple(vs)), str(path))
    return str(path)


def own_values(out, vs):
    """Each agent's value for her piece, in agent order (as listed)."""
    return [vs[item["agent"]].value(Interval(F(item["left"]),
                                             F(item["right"])))
            for item in out["allocation"]]


@pytest.mark.parametrize("n", (2, 3))
def test_allocate_ordinal_pie_plural_ell_without_thresholds(tmp_path,
                                                            capsys, n):
    """The thresholds from the pie opened at s serve every ell: each agent
    gets her exact 1-out-of-n share of [s, 1] minus eps."""
    rng = random.Random(2810 + n)
    eps = F(1, 100)
    for _ in range(6):
        vs = [random_valuation(rng, Topology.PIE, max_segments=6)
              for _ in range(n)]
        s = random_separation(rng, F(1, n + 1))
        code, out = run_cli(capsys, "allocate", "--criterion", "ordinal",
                            "--ell", "2", "--instance",
                            write_instance(tmp_path, Topology.PIE, s, vs))
        assert code == 0
        for v, own in zip(vs, own_values(out, vs)):
            view = (v.breakpoints, v.densities, v._prefix)
            assert own >= _max_share([view] * n, s, F(1), s) - eps
        # ceil(log2(1/eps)) = 7 bisection rounds per threshold
        assert out["query_count_total"] <= n * n * 7 + n * (n + 1) // 2


def promise_kept(criterion, topology, vs, s, own, report):
    """Whether the check report and own values show the criterion's
    promise: the exact share (mms), the 1-out-of-(2n-1) share (cake
    ordinal), the 1-out-of-(n+1) share within the default eps (pie
    ordinal), equal values (eq) or envy within the default eps (ef)."""
    n = len(vs)
    if criterion == "mms":
        return report["mms_dominance"] == [True] * n
    if criterion == "ordinal" and topology is Topology.CAKE:
        return all(x >= exact_mms(v, 2 * n - 1, s)[0]
                   for v, x in zip(vs, own))
    if criterion == "ordinal":
        return all(x + F(1, 100) >= pie_exact_mms(v, n + 1, s)
                   for v, x in zip(vs, own))
    if criterion == "eq":
        return report["equitability_gap"] == "0"
    return F(report["envy_max"]) <= F(1, 10**6)


@pytest.mark.parametrize("criterion, topology", (
    ("mms", Topology.CAKE), ("ordinal", Topology.CAKE),
    ("ordinal", Topology.PIE), ("eq", Topology.CAKE), ("ef", Topology.CAKE)))
def test_allocate_then_check_round_trip(tmp_path, capsys, criterion,
                                        topology):
    """``check`` on the output of ``allocate`` reports separated pieces and
    the criterion's promise, on seeded instances."""
    rng = random.Random(2820)
    for _ in range(4):
        n = 2 if criterion == "ef" else rng.randint(2, 3)
        vs = [random_valuation(rng, topology) for _ in range(n)]
        # the pieces must fit: n + 1 on a pie, 2n - 1 for the cake ordinal
        if topology is Topology.PIE:
            upper = F(1, n + 1)
        else:
            upper = F(1, 2 * n - 2 if criterion == "ordinal" else n - 1)
        s = random_separation(rng, upper)
        inst_path = write_instance(tmp_path, topology, s, vs)
        code, out = run_cli(capsys, "allocate", "--criterion", criterion,
                            "--instance", inst_path)
        assert code == 0
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(json.dumps(out))
        code, report = run_cli(capsys, "check", "--instance", inst_path,
                               "--allocation", str(alloc_path))
        assert code == 0
        assert report["separation_ok"] is True
        assert promise_kept(criterion, topology, vs, s, own_values(out, vs),
                            report)


@pytest.mark.parametrize("ell, message", (
    ("x", "ells must be integers, got 'x'"),
    ("0", "ells must be positive integers"),
    ("1,-1", "ells must be positive integers")))
def test_allocate_ordinal_bad_ell(capsys, ell, message):
    assert main(["allocate", "--criterion", "ordinal", "--instance",
                 UNI2_PIE_PATH, "--ell", ell]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("criterion, s, bound", (
    ("eq", "-1/10", "1"), ("eq", "0", "1"), ("ef", "-1/10", "1"),
    ("ef", "0", "1"), ("mms", "0", "1"), ("ordinal", "1/2", "1/2")))
def test_allocate_separation_outside_the_rule(tmp_path, capsys, criterion,
                                              s, bound):
    inst = {"topology": "cake", "s": s,
            "agents": [{"breakpoints": ["0", "1"], "densities": ["1"]}] * 2}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(["allocate", "--criterion", criterion, "--instance",
                 str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: separation {s} outside (0, {bound})\n"


def test_pie_decide_one_over_k(capsys):
    code, out = run_cli(capsys, "pie-decide", "--mode", "one-over-k",
                        "--k", "2", "--instance", UNI2_PIE_PATH)
    assert code == 0
    assert out["answer"] is False
    assert out["queries"] <= 6 * 2 / F(1, 10)


def test_check_roundtrip(tmp_path, capsys):
    code, alloc = run_cli(capsys, "allocate", "--criterion", "mms",
                          "--instance", THIRDS_PATH)
    path = tmp_path / "alloc.json"
    path.write_text(json.dumps(alloc))
    code, report = run_cli(capsys, "check", "--instance", THIRDS_PATH,
                           "--allocation", str(path))
    assert code == 0
    assert report["envy_max"] == "1/5"
    assert report["equitability_gap"] == "1/5"
    assert report["separation_ok"] is True
    assert report["mms_dominance"] == [True, True]


@pytest.mark.parametrize("alloc", (
    {"topology": "circle",
     "allocation": [{"agent": 0, "left": "0", "right": "1/3"},
                    {"agent": 1, "left": "2/3", "right": "1"}]},
    {"allocation": 5},
    # thirds.json is a cake with s = 1/3: the file may not audit it as a
    # pie, or with another s
    {"topology": "pie",
     "allocation": [{"agent": 0, "left": "1/6", "right": "1/3"},
                    {"agent": 1, "left": "2/3", "right": "5/6"}]},
    {"s": "1/6",
     "allocation": [{"agent": 0, "left": "1/6", "right": "1/3"},
                    {"agent": 1, "left": "2/3", "right": "5/6"}]}))
def test_check_malformed_allocation(tmp_path, capsys, alloc):
    path = tmp_path / "alloc.json"
    path.write_text(json.dumps(alloc))
    assert main(["check", "--instance", THIRDS_PATH,
                 "--allocation", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_adversary_findsum(capsys):
    code, out = run_cli(capsys, "adversary", "findsum", "--s", "1/10",
                        "--budget", "12")
    assert code == 0
    assert out["falsified"] is True
    assert out["claimed"] != out["actual"]


def test_adversary_haslowvalue(capsys):
    code, out = run_cli(capsys, "adversary", "haslowvalue", "--s", "1/4",
                        "--q", "1/8", "--budget", "10")
    assert code == 0
    assert out["falsified"] is True


@pytest.mark.parametrize("kind, solver", (("findsum", "scan"),
                                           ("haslowvalue", "bisect")))
def test_adversary_unknown_solver(capsys, kind, solver):
    assert main(["adversary", kind, "--s", "1/4", "--q", "1/8",
                 "--solver", solver]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown solver {solver!r} for {kind}\n"


@pytest.mark.parametrize("kind, budget", (("findsum", "-3"),
                                           ("haslowvalue", "0")))
def test_adversary_budget_below_one(capsys, kind, budget):
    assert main(["adversary", kind, "--s", "1/4", "--q", "1/8",
                 "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: budget must be at least 1, got {budget}\n"


def test_adversary_pie_witness(capsys):
    code, out = run_cli(capsys, "adversary", "pie-witness", "--k", "2",
                        "--s", "3/10")
    assert code == 0
    assert out["v_low"]["densities"] == ["1"]
    assert len(out["v_high"]["densities"]) >= 4


def test_transcript_export(tmp_path, capsys):
    path = tmp_path / "transcript.jsonl"
    code, _ = run_cli(capsys, "mms-approx", "--instance", THIRDS_PATH,
                      "--epsilon", "1/64", "--transcript", str(path))
    assert code == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines and all(
        set(rec) >= {"index", "kind", "args", "answer"} for rec in lines)
    assert [rec["index"] for rec in lines] == list(range(len(lines)))


@pytest.mark.parametrize("agent", ("5", "-1"))
@pytest.mark.parametrize("argv", (
    ("decide", "--instance", THIRDS_PATH, "--rel", "atleast", "--r", "1/5"),
    ("mms-approx", "--instance", THIRDS_PATH),
    ("pie-decide", "--instance", UNI2_PIE_PATH, "--mode", "one-over-k",
     "--k", "2")))
def test_agent_out_of_range(capsys, argv, agent):
    assert main([*argv, "--agent", agent]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: agent {agent} out of range\n"


def test_float_display(capsys):
    code = main(["mms-exact", "--instance", THIRDS_PATH, "--n", "2",
                 "--float"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mms"] == 0.4


def test_input_error_exit_code(capsys):
    assert main(["mms-exact", "--instance", "/does/not/exist.json"]) == 1


def test_malformed_json_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"topology": "cake", "s": }')
    assert main(["mms-exact", "--instance", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    bad.write_text('{"allocation": [\n  {"agent": 0,,}]}')
    assert main(["check", "--instance", THIRDS_PATH,
                 "--allocation", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid JSON at line 2, column" in err


def test_protocol_failure_exit_code(tmp_path, capsys):
    # pie ordinal with impossible explicit thresholds
    inst = {
        "topology": "pie", "s": "3/10",
        "agents": [
            {"breakpoints": ["0", "1/50", "24/50", "26/50", "49/50", "1"],
             "densities": ["25/2", "0", "25/2", "0", "25/2"]},
            {"breakpoints": ["0", "11/50", "14/50", "36/50", "39/50", "1"],
             "densities": ["0", "25/3", "0", "25/3", "0"]},
        ],
    }
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(inst))
    code = main(["allocate", "--criterion", "ordinal", "--instance",
                 str(path), "--thresholds", "1/2,1/2"])
    assert code == 2


def test_instance_round_trip(tmp_path):
    from sepfair.instances import Instance, load_instance, save_instance
    from sepfair.valuations import Topology
    inst = Instance(Topology.CAKE, F(1, 3), (THIRDS,))
    path = tmp_path / "roundtrip.json"
    save_instance(inst, str(path))
    back = load_instance(str(path))
    assert back.s == inst.s
    assert back.topology is inst.topology
    assert back.agents == inst.agents


def test_float_rejected_in_instances(tmp_path):
    bad = tmp_path / "floats.json"
    bad.write_text('{"topology": "cake", "s": 0.3, '
                   '"agents": [{"breakpoints": ["0","1"], '
                   '"densities": ["1"]}]}')
    assert main(["mms-exact", "--instance", str(bad)]) == 1


@pytest.mark.parametrize("agent, fragment", (
    ({"breakpoints": ["0", "1/2", "1"], "densities": ["x/3", "2"]}, "x/3"),
    # strings are not read character by character as the uniform valuation
    ({"breakpoints": "01", "densities": "1"}, "must be JSON lists")))
def test_bad_density_names_its_agent(tmp_path, capsys, agent, fragment):
    bad = tmp_path / "baddensity.json"
    bad.write_text(json.dumps({
        "topology": "cake", "s": "1/4",
        "agents": [{"breakpoints": ["0", "1"], "densities": ["1"]}, agent]}))
    assert main(["mms-exact", "--instance", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "agent 1:" in err and fragment in err


def test_table_output(capsys):
    code = main(["mms-exact", "--instance", THIRDS_PATH, "--n", "2",
                 "--output", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mms: 2/5" in out


def test_check_pie_when_one_more_piece_does_not_fit(tmp_path, capsys):
    # 3 separators of length 2/5 overfill the circle, so the 1-out-of-3
    # share is 0 and every agent's piece dominates it
    inst = {"topology": "pie", "s": "2/5",
            "agents": [{"breakpoints": ["0", "1"], "densities": ["1"]}] * 2}
    alloc = {"topology": "pie", "s": "2/5",
             "allocation": [{"agent": 0, "left": "0", "right": "1/20"},
                            {"agent": 1, "left": "9/20", "right": "1/2"}]}
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst_path.write_text(json.dumps(inst))
    alloc_path.write_text(json.dumps(alloc))
    code, report = run_cli(capsys, "check", "--instance", str(inst_path),
                           "--allocation", str(alloc_path))
    assert code == 0
    assert report["separation_ok"] is True
    assert report["envy_max"] == "0"
    assert report["mms_dominance"] == [True, True]


def run_check(tmp_path, capsys, inst, alloc):
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst_path.write_text(json.dumps(inst))
    alloc_path.write_text(json.dumps(alloc))
    return run_cli(capsys, "check", "--instance", str(inst_path),
                   "--allocation", str(alloc_path))


def test_check_cake_when_the_pieces_only_just_fit(tmp_path, capsys):
    # with s = 1/2, three separated pieces fit only as single points, so
    # the 3-piece share is 0 and every agent's piece dominates it
    inst = {"topology": "cake", "s": "1/2",
            "agents": [{"breakpoints": ["0", "1"], "densities": ["1"]}] * 3}
    alloc = {"topology": "cake", "s": "1/2",
             "allocation": [{"agent": i, "left": x, "right": x}
                            for i, x in enumerate(("0", "1/2", "1"))]}
    code, report = run_check(tmp_path, capsys, inst, alloc)
    assert code == 0
    assert report["separation_ok"] is True
    assert report["envy_max"] == "0"
    assert report["mms_dominance"] == [True, True, True]


def test_check_three_agent_pie(tmp_path, capsys):
    # the first 3-agent audit of random.Random(550): one 1-out-of-4 pie
    # share per agent
    rng = random.Random(550)
    vs = [random_valuation(rng, Topology.PIE, max_segments=3)
          for _ in range(3)]
    s = random_separation(rng, F(1, 4))
    inst = {"topology": "pie", "s": str(s),
            "agents": [{"breakpoints": [str(p) for p in v.breakpoints],
                        "densities": [str(g) for g in v.densities]}
                       for v in vs]}
    w = (1 - 3 * s) / 3
    lefts = [i * (w + s) for i in range(3)]
    alloc = {"topology": "pie", "s": str(s),
             "allocation": [{"agent": i, "left": str(x), "right": str(x + w)}
                            for i, x in enumerate(lefts)]}
    code, report = run_check(tmp_path, capsys, inst, alloc)
    assert code == 0
    assert report["separation_ok"] is True
    assert report["mms_dominance"] == [
        v.value_between(x, x + w) >= pie_exact_mms(v, 4, s)
        for v, x in zip(vs, lefts)]


def run_fresh(*argv):
    """The CLI in a new interpreter, so with a newly built parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "sepfair.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_parser_reuse_matches_fresh_process(tmp_path, capsys):
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({
        "topology": "cake", "s": "1/3",
        "allocation": [{"agent": 0, "left": "0", "right": "1/3"},
                       {"agent": 1, "left": "2/3", "right": "1"}]}))
    calls = [
        ["mms-exact", "--instance", THIRDS_PATH, "--n", "2"],
        ["mms-approx", "--instance", THIRDS_PATH, "--epsilon", "1/64"],
        ["decide", "--rel", "greater", "--r", "2/5", "--instance",
         THIRDS_PATH],
        ["allocate", "--criterion", "mms", "--instance", THIRDS_PATH],
        ["pie-decide", "--mode", "one-over-k", "--k", "2", "--instance",
         UNI2_PIE_PATH],
        ["check", "--instance", THIRDS_PATH, "--allocation", str(alloc)],
        ["adversary", "findsum", "--s", "1/10", "--budget", "6",
         "--float"],
    ]
    assert [argv[0] for argv in calls] == list(SUBCOMMANDS)
    # argparse rejecting one call leaves the shared parser as it was
    with pytest.raises(SystemExit):
        main(["decide", "--instance", THIRDS_PATH, "--rel", "most"])
    capsys.readouterr()
    for argv in calls:
        assert main(argv) == 0
        fresh = run_fresh(*argv)
        assert fresh.returncode == 0, fresh.stderr
        assert capsys.readouterr().out == fresh.stdout


def test_help_lists_every_subcommand():
    proc = run_fresh("--help")
    assert proc.returncode == 0
    for name in SUBCOMMANDS:
        assert name in proc.stdout


def readme_cli_examples():
    """The ``sepfair ...`` lines of the README's fenced blocks, as argv."""
    with open(os.path.join(HERE, os.pardir, "README.md")) as fh:
        blocks = fh.read().split("```")[1::2]
    return [line.split()[1:] for block in blocks
            for line in block.splitlines() if line.startswith("sepfair ")]


@pytest.mark.parametrize("argv", readme_cli_examples(),
                         ids=lambda argv: argv[0])
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch, capsys):
    """Each README example exits 0 from the repository root; ``check``
    audits an allocation written by its own ``allocate`` call."""
    monkeypatch.chdir(os.path.join(HERE, os.pardir))
    if argv[0] == "check":
        instance = argv[argv.index("--instance") + 1]
        assert main(["allocate", "--instance", instance,
                     "--criterion", "mms"]) == 0
        alloc = tmp_path / "alloc.json"
        alloc.write_text(capsys.readouterr().out)
        argv = [str(alloc) if arg == "alloc.json" else arg for arg in argv]
    assert main(argv) == 0
