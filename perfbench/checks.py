"""Output checks: does one command's result match what the input implies?

``check`` returns None for a correct output, or ``(failure, known)``:
``failure`` names the exception class or failed expectation, and ``known``
marks the one failure the library is known to have today, the 135-point
grouping claim of ``verify-all`` on a surface with Eckardt points.
"""

import json
import re

GROUPING_CLAIM = "135 intersection points"
_ERROR_LINE = re.compile(r"^(?:error: )?([A-Za-z_][\w.]*(?:Error|Exception|Exit|Interrupt)\w*):",
                         re.MULTILINE)


def _error_class(stderr):
    found = _ERROR_LINE.findall(stderr)
    return found[-1] if found else "UnknownError"


def check(command, code, stdout, stderr, facts):
    if "Traceback (most recent call last)" in stderr:
        return f"Traceback:{_error_class(stderr)}", False
    if code != 0 and command != "verify-all":
        return f"Exit{code}:{_error_class(stderr)}", False
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"Exit{code}:{_error_class(stderr)}" if code else "BadJSON", False
    if report.get("schema") != 1 or report.get("command") != command:
        return "BadHeader", False
    try:
        return EXPECTATIONS[command](report, code, facts)
    except (KeyError, TypeError):
        return "BadReport", False


def _verify_all(report, code, facts):
    failed = [r["claim"] for r in report["results"] if not r["pass"]]
    if not failed and report["all_pass"] and code == 0:
        # Three lines through one point leave fewer than 135 distinct
        # intersection points, so the claim must fail on an Eckardt surface.
        return ("ClaimPassedOnEckardt", False) if facts.get("eckardt") else None
    if (facts.get("eckardt") and code == 1 and len(failed) == 1
            and failed[0].startswith(GROUPING_CLAIM)):
        return "ClaimFailed:" + GROUPING_CLAIM, True
    return "ClaimFailed:" + "|".join(failed), False


def _expect(predicate, what):
    def run(report, code, facts):
        return None if predicate(report, facts) else (f"CheckFailed:{what}", False)
    return run


EXPECTATIONS = {
    "verify-all": _verify_all,
    "construct": _expect(lambda r, f: len(r["lines"]) == 27, "27 lines"),
    "configurations": _expect(
        lambda r, f: (r["tritangent_planes"], r["double_sixes"],
                      r["trieder_pairs"], r["triads"], r["enneahedra"])
        == (45, 36, 120, 40, 200), "45/36/120/40/200"),
    "cayley-salmon": _expect(
        lambda r, f: r["identities_verified"] == r["pairs_checked"],
        "identities_verified == pairs_checked"),
    "hexahedral": _expect(lambda r, f: r["cayley_salmon_splits"] == 10,
                          "10 Cayley-Salmon splits"),
    "determinantal": _expect(lambda r, f: r["parametrization_on_surface"] is True,
                             "parametrization_on_surface"),
    "species": _expect(lambda r, f: list(r["classified"]) == [str(f["species"])],
                       "classified species equals the drawn k"),
}
