#!/usr/bin/env python3
"""Coverage split of src/: what the drivers run, what only tests run, what
nothing runs. The two halves of scripts/coverage.sh:

  coverage_split.py snapshot <out.json> <build-tree>...
      Runs `gcov --json-format` over every .gcno under the build trees and
      writes the summed line and function counts of each src/ file. A .gcno
      whose .gcda is missing (its program never ran) counts as all zeros, so
      every snapshot covers the same code.

  coverage_split.py report <drivers.json> <tests.json>
      Prints, per src/ directory, the lines and functions the drivers ran,
      the ones only tests ran, and the ones nothing ran, then the functions
      of the last two classes.

A function is keyed by its file, start line and demangled name with template
arguments dropped, so every instantiation of a template counts as one
function, run if any instantiation ran. Only functions gcc emitted are
counted: an inline function no object file uses does not appear.
"""

import json
import os
import re
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep


OPERATOR = re.compile(r"operator\s*(\(\)|<=>|<<=?|>>=?|<=|>=|->\*?|<|>)")


def function_key(demangled):
    """`faasm::KvsClient::Read(std::string const&, ...)` -> `KvsClient::Read`.

    Template arguments and parameter lists are dropped, so the instantiations
    of a template and the overloads at one line share a key.
    """
    ops = OPERATOR.findall(demangled)
    name = OPERATOR.sub("operator@", demangled)
    out, depth = [], 0
    for ch in name:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    name = "".join(out).strip()
    for op in ops:
        name = name.replace("operator@", "operator" + op, 1)
    return name[len("faasm::"):] if name.startswith("faasm::") else name


def gcov_json(gcnos):
    """Yields the `files` entries gcov reports for a batch of .gcno files."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names"] + gcnos,
        capture_output=True, text=True, cwd=ROOT)
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        for entry in json.loads(line).get("files", []):
            yield entry


def snapshot(out_path, trees):
    gcnos = []
    for tree in trees:
        for dirpath, _, names in os.walk(tree):
            gcnos.extend(os.path.join(dirpath, n) for n in names if n.endswith(".gcno"))
    lines = defaultdict(lambda: defaultdict(int))
    functions = defaultdict(dict)
    for i in range(0, len(gcnos), 64):
        for entry in gcov_json(gcnos[i:i + 64]):
            path = os.path.realpath(entry["file"])
            if not path.startswith(SRC):
                continue
            rel = os.path.relpath(path, ROOT)
            for ln in entry.get("lines", []):
                lines[rel][ln["line_number"]] += ln["count"]
            for fn in entry.get("functions", []):
                key = f'{fn["start_line"]}:{function_key(fn["demangled_name"])}'
                rec = functions[rel].setdefault(
                    key, {"name": function_key(fn["demangled_name"]),
                          "start": fn["start_line"], "count": 0})
                rec["count"] += fn["execution_count"]
    with open(out_path, "w") as f:
        json.dump({"lines": lines, "functions": functions}, f)
    print(f"[coverage] {len(gcnos)} objects, {len(lines)} src files -> {out_path}")


def classify(driver_count, test_count):
    if driver_count > 0:
        return "driver"
    return "test" if test_count > 0 else "never"


def report(drivers_path, tests_path):
    with open(drivers_path) as f:
        drivers = json.load(f)
    with open(tests_path) as f:
        tests = json.load(f)
    classes = ("driver", "test", "never")
    line_counts = defaultdict(lambda: dict.fromkeys(classes, 0))
    fn_counts = defaultdict(lambda: dict.fromkeys(classes, 0))
    listed = {"test": [], "never": []}
    for rel, per_line in drivers["lines"].items():
        d = rel.split(os.sep)[1]
        t_lines = tests["lines"].get(rel, {})
        for ln, count in per_line.items():
            line_counts[d][classify(count, t_lines.get(ln, 0))] += 1
    for rel, fns in drivers["functions"].items():
        d = rel.split(os.sep)[1]
        t_fns = tests["functions"].get(rel, {})
        for key, rec in fns.items():
            cls = classify(rec["count"], t_fns.get(key, {}).get("count", 0))
            fn_counts[d][cls] += 1
            if cls in listed:
                listed[cls].append((rel, rec["start"], rec["name"]))

    header = (f'{"dir":<10} {"lines:driver":>12} {"test-only":>9} {"never":>6}   '
              f'{"functions:driver":>16} {"test-only":>9} {"never":>6}')
    print(header)
    total_l = dict.fromkeys(classes, 0)
    total_f = dict.fromkeys(classes, 0)
    for d in sorted(line_counts):
        lc, fc = line_counts[d], fn_counts[d]
        for c in classes:
            total_l[c] += lc[c]
            total_f[c] += fc[c]
        print(f'{d:<10} {lc["driver"]:>12} {lc["test"]:>9} {lc["never"]:>6}   '
              f'{fc["driver"]:>16} {fc["test"]:>9} {fc["never"]:>6}')
    print(f'{"total":<10} {total_l["driver"]:>12} {total_l["test"]:>9} {total_l["never"]:>6}   '
          f'{total_f["driver"]:>16} {total_f["test"]:>9} {total_f["never"]:>6}')
    print("(lines: executable lines gcov reports; functions: distinct functions gcc emitted)")
    for cls, title in (("test", "Run only by tests"), ("never", "Run by nothing")):
        print(f"\n{title} ({len(listed[cls])} functions):")
        for rel, start, name in sorted(listed[cls]):
            print(f"  {rel}:{start} {name}")


def main(argv):
    if len(argv) >= 3 and argv[1] == "snapshot":
        snapshot(argv[2], argv[3:])
    elif len(argv) == 4 and argv[1] == "report":
        report(argv[2], argv[3])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
