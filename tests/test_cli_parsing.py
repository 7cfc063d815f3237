"""Argument parsing: a plain job without argparse, the full tree for the rest.

A plain job (every flag spelled in full, once, and no value that starts with
"-") is read by cli._plain to argparse's namespace.  Any other job, help, a
missing or unknown subcommand and every usage error are handed to the full
tree of cli._build_parser, so what they read, print and exit with is the full
tree's, byte for byte.  Every job of the README and of the golden reports is
plain.
"""

import argparse
import itertools
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest

from stablerep import cli
from test_cli import GOLDEN_JOBS

# One cheap well-formed job per subcommand, in the order of cli.COMMANDS.
JOBS = {
    "eval-state": ["SPEC", "--perm", "[[1,2]]"],
    "char-finite": ["--partition", "[2,1]", "--perm", "[[1,2]]"],
    "char-thoma": ["SPEC", "--perm", "[[1,2,3]]"],
    "dual-norm": ["SPEC", "--level", "4"],
    "psd-check": ["TABLE", "--level", "2"],
    "asymptotic-char": ["SPEC", "--perm", "[[1,2]]"],
    "recover-params": ["VALUES", "--support-bounds", "1,0"],
    "classify": ["SPEC", "--level", "5", "--support-bounds", "2,0"],
    "quasi-equivalent": ["SPEC", "SPEC"],
    "stability-profile": ["SPEC", "--level", "4", "--format", "csv"],
    "centrality-defect": ["SPEC", "--cut", "2", "--level", "4"],
    "gns-verify": ["SPEC", "--level", "2"],
    "induce-char": ["--partition", "[2,1]", "--mu", "[2]", "--level", "5"],
}

# Argument lists that are no job: each must exit 2 as the full tree prints it.
MALFORMED = {
    "unknown flag": ["--cache-dir", "x"],
    "level not an integer": ["--level", "x"],
    "format not a choice": ["--format", "xml"],
    "extra positional": ["extra"],
    "flag without its value": ["--output"],
}


@pytest.fixture
def files(tmp_path):
    data = {"SPEC": {"n": 2, "lambda": [1, 1], "alpha": ["1/2", "1/2"], "beta": []},
            "TABLE": {"level": 2, "values": [[[], 1], [[[1, 2]], 0.5]]},
            "VALUES": {"2": 0.25, "3": 0.125, "4": 0.0625}}
    paths = {}
    for key, value in data.items():
        path = tmp_path / ("%s.json" % key.lower())
        path.write_text(json.dumps(value))
        paths[key] = str(path)
    return lambda argv: [paths.get(a, a) for a in argv]


def outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def full_tree(argv):
    return cli._build_parser().parse_args(argv)


def test_commands_are_the_full_trees_subcommands_in_order():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(cli.COMMANDS) == list(sub.choices) == list(JOBS)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], [], ["nope"], ["nope", "--level", "2"],
                                  ["--level", "2", "dual-norm"]])
def test_top_level_help_and_errors_are_the_full_trees(capsys, argv):
    expected = outcome(capsys, full_tree, argv)
    assert outcome(capsys, cli.main, argv) == expected
    assert expected[0] in (0, 2)


@pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
@pytest.mark.parametrize("command", JOBS)
def test_help_of_every_row_is_the_full_trees(capsys, files, command, flag):
    for argv in ([command, flag], [command, *files(JOBS[command]), flag]):
        expected = outcome(capsys, full_tree, argv)
        assert expected[0] == 0 and expected[1].startswith("usage: stablerep %s " % command)
        assert outcome(capsys, cli.main, argv) == expected


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("command", JOBS)
def test_usage_errors_of_every_row_are_the_full_trees(capsys, files, command, case):
    argv = [command, *files(JOBS[command]), *MALFORMED[case]]
    expected = outcome(capsys, full_tree, argv)
    assert expected[0] == 2 and expected[1] == "" and "error: " in expected[2]
    assert outcome(capsys, cli.main, argv) == expected


@pytest.mark.parametrize("command", JOBS)
def test_missing_required_arguments_are_the_full_trees(capsys, files, command):
    # With no argument every row misses one; then each required flag alone.
    job, argvs = JOBS[command], [[command]]
    for flags, options in cli.COMMANDS[command].arguments:
        if options.get("required"):
            i = job.index(flags[0])
            argvs.append([command, *files(job[:i] + job[i + 2:])])
    for argv in argvs:
        expected = outcome(capsys, full_tree, argv)
        assert expected[0] == 2 and "the following arguments are required" in expected[2]
        assert outcome(capsys, cli.main, argv) == expected


@pytest.mark.parametrize("command", [c for c, row in cli.COMMANDS.items() if row.cap is None])
def test_allow_large_on_an_uncapped_row_is_the_full_trees_error(capsys, files, command):
    argv = [command, *files(JOBS[command]), "--allow-large"]
    expected = outcome(capsys, full_tree, argv)
    assert expected[0] == 2 and "unrecognized arguments: --allow-large" in expected[2]
    assert outcome(capsys, cli.main, argv) == expected


def parsed(parse, argv):
    """The namespace of parse(argv) as a dict, or the code it exits with."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("extra", [[], ["--output", "OUT"], ["--o=OUT"], ["--", "x"]])
@pytest.mark.parametrize("command", JOBS)
def test_a_row_reads_a_job_as_the_full_tree_does(capsys, files, command, extra):
    argv = [command, *files(JOBS[command] + extra)]
    expected = parsed(full_tree, argv)
    assert parsed(cli._parse, argv) == expected
    # After "--", "x" is one positional too many: both exit 2.
    assert expected == (2 if extra == ["--", "x"] else vars(full_tree(argv)))


@pytest.mark.parametrize("command", JOBS)
def test_a_plain_job_builds_no_parser(capsys, monkeypatch, files, command):
    def no_tree():
        raise AssertionError("the full tree was built for a plain job")

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_build_parser", no_tree)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code = cli.main([command, *files(JOBS[command])])
    assert built == []
    assert code == 0 and capsys.readouterr().out


@pytest.mark.parametrize("command", JOBS)
def test_every_job_is_read_without_argparse(files, command):
    argv = [command, *files(JOBS[command])]
    assert vars(cli._plain(argv)) == vars(full_tree(argv))


# Words a random job is drawn from: values of every type, good and bad, and
# words that only argparse reads.
VALUES = ["4", "0", "12", " 3", "+2", "1_0", "07", "-3", "-1.5", "x", "", "nan", "inf", "1e-3",
          "0.5", "json", "csv", "xml", "[[1,2]]", "2,1", "A", "B", "a=b", "--", "-", "-h",
          "--help", "--output", "--allow-large"]


def random_argv(rng, command):
    """A random job of the row: each argument in a random spelling, most of them
    plain, with now and then a word that only argparse can read."""
    argv, arguments = [], cli._row_arguments(cli.COMMANDS[command])
    for flags, options in rng.sample(arguments, k=len(arguments)):
        if rng.random() < 0.05:
            continue
        flag = flags[0]
        value = rng.choice(VALUES) if rng.random() < 0.1 else rng.choice({
            int: ["4", "2", "0", " 5"], float: ["0.5", "1e-9", "nan", "3"]}.get(
            options.get("type"), options.get("choices", ["A", "B", "[[1,2]]", "2,1"])))
        if flag[0] != "-":
            argv.append(value)
            continue
        spelled = flag[:rng.randrange(3, len(flag) + 1)] if rng.random() < 0.1 else flag
        for _ in range(2 if rng.random() < 0.05 else 1):
            if options.get("action") == "store_true":
                argv.append(spelled + ("=1" if rng.random() < 0.1 else ""))
            elif rng.random() < 0.3:
                argv.append("%s=%s" % (spelled, value))
            else:
                argv += [spelled] + ([value] if rng.random() < 0.95 else [])
    for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 2])):
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(VALUES))
    return [command] + argv


def typed(namespace):
    """vars(namespace) with each value as its type and repr, so that NaN equals NaN."""
    return {key: (type(value), repr(value)) for key, value in vars(namespace).items()}


@pytest.mark.parametrize("command", JOBS)
def test_the_plain_reader_gives_the_row_parsers_namespace(command):
    # The reference is the row's parser in the full tree.
    rng = random.Random(command)
    parser = cli._build_parser()
    answered = 0
    for _ in range(1000):
        argv = random_argv(rng, command)
        plain = cli._plain(argv)
        if plain is not None:
            assert typed(plain) == typed(parser.parse_args(argv)), argv
            answered += 1
    assert answered >= 100, answered


def readme_jobs():
    """Each command line of the README, with and without each bracketed option,
    and 5 for each upper-case placeholder such as M."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("stablerep ")]
    assert len(lines) == len(cli.COMMANDS)
    for line in lines:
        options = re.findall(r" \[(--[^]]*)\]", line)
        job = shlex.split(re.sub(r" \[--[^]]*\]", "", line))[1:]
        for chosen in itertools.product(*[[[], shlex.split(o)] for o in options]):
            argv = job + [word for option in chosen for word in option]
            yield ["5" if word.isupper() else word for word in argv]


def test_every_readme_and_golden_job_is_plain():
    # The jobs the README shows and the goldens pin pay for no argparse.
    for argv in [*readme_jobs(), *GOLDEN_JOBS]:
        assert cli._plain(argv) is not None, argv


def test_a_plain_job_imports_no_locale(tmp_path):
    # argparse's first message lookup imports locale, most of its set-up time.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2, "lambda": [1, 1], "alpha": ["1/2"], "beta": []}))
    script = ("import sys\nfrom stablerep import cli\n"
              "code = cli.main(['eval-state', sys.argv[1], '--perm', '[[1,2]]', '--output', "
              "sys.argv[2]])\nprint(code, 'locale' in sys.modules)\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(spec), str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True)
    assert proc.stdout == "0 False\n", proc.stderr


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_an_output_that_cannot_be_opened_exits_2(capsys, files, tmp_path, target):
    path = str(tmp_path / "no" / "dir" / "x.json") if target == "missing" else str(tmp_path)
    code = cli.main(["eval-state", *files(JOBS["eval-state"]), "--output", path])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.endswith(" [--output]\n")
    assert path in out.err and "Traceback" not in out.err
