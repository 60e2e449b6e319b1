"""Mutation check: each mutant below breaks the library on purpose, and the
tests named with it must fail.

For every mutant the script copies src/ to a temporary directory, replaces
one exact piece of text in one file, and runs the named tests against the
copy. It prints killed or survived per mutant. It exits 1 when a mutant
survives, when a mutant's old text no longer occurs exactly once in its file,
or when the named tests do not all pass on the unmutated copy. It uses the
standard library only. pytest does not collect it, since it runs pytest once
per mutant (about two minutes on two cores). Run it from anywhere:

    python tests/mutants.py

A change that claims its tests kill a new mutant adds that mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PINNED = "tests/test_solvers.py::test_pinned_solver_work"
CONTRACT = "tests/test_solvers.py::TestSolverContractProperty"
TIES = "tests/test_purechar.py::TestTiedSlopes"
CLOSED_FORMS = "tests/test_purechar.py::TestClosedForms"
GENERIC_SWEEP = (
    "tests/test_purechar.py::TestEvaluationPaths::test_sweep_matches_vectorized_on_generic_market"
)
SCIPY_IMPORT = (
    "tests/test_solvers.py::TestTrustRegionStep::test_scipy_loaded_on_first_purechar_evaluation"
)
LOGIT_PROPERTY = "tests/test_logit.py::TestInvariants::test_random_markets_and_utilities"
LOGIT_PSD = "tests/test_logit.py::TestInvariants::test_jacobian_psd_on_random_markets"
LOGIT_CACHE = "tests/test_logit.py::TestCachedUtilities::test_cache_read_only_and_unchanged"
STEP_PROPERTY = "tests/test_solvers.py::TestTrustRegionStep::test_floored_step_properties"
MISTYPED_SPEC = "tests/test_cli.py::TestSimulate::test_mistyped_spec_field_is_usage_error"
BAD_SOLVER = "tests/test_cli.py::TestSimulate::test_bad_solver_setting_is_usage_error"
MISTYPED_MODEL = "tests/test_cli.py::TestInvert::test_mistyped_model_field_is_usage_error"
MODEL_FILES = "tests/test_modelio.py::TestModelFiles"
LOGIT_BUILD = "tests/test_logit.py::TestInstanceConstruction"
PURECHAR_BUILD = "tests/test_purechar.py::TestInstanceConstruction"
SCRATCH = "tests/test_purechar.py::TestScratch"
SAME_SHAPE = f"{SCRATCH}::test_other_markets_between_calls_change_nothing"
VALIDATORS = "tests/test_core.py::TestValidators"
NAN_SHARES = "tests/test_solvers.py::TestSharedContract::test_nan_shares_raise"

# (name, file under src/demandinv, exact old text, new text, tests that must fail)
MUTANTS = [
    (
        "-0.0 slope kept, so an equal slope subtracts to -0.0",
        "purechar.py",
        "np.append(z[:, 0], 0.0) + 0.0",
        "np.append(z[:, 0], 0.0)",
        [f"{TIES}::test_edge_cases_match_sweep[signed_zero_slope]"],
    ),
    (
        "segment owners read by slope rank",
        "purechar.py",
        "own = order[cs]",
        "own = cs",
        [GENERIC_SWEEP],
    ),
    (
        "left bound from the adjacent lower line only",
        "purechar.py",
        "cross.max(axis=0, out=Lc)",
        "Lc[...] = cross[-1]",
        [GENERIC_SWEEP],
    ),
    (
        "coincident lines' NaN crossing dropped from the left bound",
        "purechar.py",
        "cross.max(axis=0, out=Lc)",
        "np.fmax.reduce(cross, axis=0, out=Lc)",
        [TIES],
    ),
    (
        "coincident lines' NaN crossing kept in the right bound",
        "purechar.py",
        "np.fmin(Rp, cross, out=Rp)",
        "np.minimum(Rp, cross, out=Rp)",
        [TIES],
    ),
    (
        "right bound from the adjacent higher line only",
        "purechar.py",
        "np.fmin(Rp, cross, out=Rp)",
        "np.fmin(Rp[-1:], cross[-1:], out=Rp[-1:])",
        [GENERIC_SWEEP],
    ),
    (
        "left bounds not reset between calls",
        "purechar.py",
        "        L.fill(-np.inf)\n",
        "",
        [SAME_SHAPE, GENERIC_SWEEP, TIES],
    ),
    (
        "right bounds not reset between calls",
        "purechar.py",
        "        R.fill(np.inf)\n",
        "",
        [SAME_SHAPE, GENERIC_SWEEP],
    ),
    (
        "alive segments listed line-major",
        "purechar.py",
        "np.flatnonzero(np.less(L, R).T)",
        "np.flatnonzero(np.less(L, R))",
        [GENERIC_SWEEP],
    ),
    (
        "closing +inf breakpoint not written",
        "purechar.py",
        "        t[k] = np.inf\n",
        "",
        [SAME_SHAPE, GENERIC_SWEEP],
    ),
    (
        "scratch shared by all threads",
        "purechar.py",
        "_LOCAL = threading.local()",
        '_LOCAL = type("Shared", (), {})()',
        [f"{SCRATCH}::test_concurrent_threads_match_sequential"],
    ),
    (
        "crossing arithmetic unguarded",
        "purechar.py",
        'np.errstate(over="ignore", divide="ignore", invalid="ignore")',
        "np.errstate()",
        [TIES],
    ),
    (
        "mass not taken on the tail side",
        "purechar.py",
        "np.copysign(ndtr(s, out=s), t, out=s)",
        "np.copysign(1.0 - ndtr(-s), t, out=s)",
        [f"{CLOSED_FORMS}::test_tail_share_is_relatively_exact"],
    ),
    (
        "welfare drops the density term",
        "purechar.py",
        "np.sum(pdf * db)",
        "np.sum(0.0 * db)",
        ["tests/test_purechar.py::TestInvariants::test_gradient_is_shares"],
    ),
    (
        "breakpoint's mass given only to the segment on its left",
        "purechar.py",
        "s[:-1] - s[1:] + straddle",
        "0.0 - s[1:] + straddle",
        [CLOSED_FORMS],
    ),
    (
        "straddle read at the -inf that opens the next consumer",
        "purechar.py",
        "(neg & np.isfinite(t))[1:]",
        "neg[1:]",
        [GENERIC_SWEEP],
    ),
    (
        "Jacobian diagonal from the J inside columns only",
        "purechar.py",
        "np.diag(S.sum(axis=1))",
        "np.diag(S[:, :J].sum(axis=1))",
        ["tests/test_purechar.py::TestJacobian::test_matches_finite_differences"],
    ),
    (
        "scipy imported with the package",
        "purechar.py",
        "import numpy as np\n",
        "import numpy as np\nfrom scipy.special import ndtr\n",
        [SCIPY_IMPORT],
    ),
    (
        "no _phi clip",
        "purechar.py",
        "np.square(np.clip(t, -_PHI_CLIP, _PHI_CLIP))",
        "np.square(t)",
        ["tests/test_purechar.py::TestTiedSlopes::test_extreme_utilities_raise_no_warning"],
    ),
    (
        "slope-range check removed",
        "purechar.py",
        "if not math.isfinite(float(slopes.max()) - float(slopes.min())):",
        "if False:",
        [f"{PURECHAR_BUILD}::test_overflowing_slope_range_rejected"],
    ),
    (
        "logit shift not clamped at 0",
        "logit.py",
        "shift = v.max(axis=0, initial=0.0)",
        "shift = v.max(axis=0)",
        [LOGIT_PROPERTY],
    ),
    (
        "logit shift not added back to the log-sum",
        "logit.py",
        "float((shift + np.log(denom)).sum() / self.n)",
        "float(np.log(denom).sum() / self.n)",
        [LOGIT_PROPERTY],
    ),
    (
        "Jacobian diagonal as shares - mean(p²)",
        "logit.py",
        "np.fill_diagonal(cross, -(v @ (outside / denom) + cross.sum(axis=1)))",
        "np.fill_diagonal(cross, -self.n * (shares - (v * v).mean(axis=1)))",
        [LOGIT_PSD],
    ),
    (
        "evaluate writes into the cached utilities",
        "logit.py",
        "v = self._zn + x[:, None]",
        "v = self._zn; v.setflags(write=True); v += x[:, None]",
        [LOGIT_CACHE],
    ),
    (
        "trailing rejected trials dropped from eval_counts",
        "solvers.py",
        "trace, evals, trials + 1, cfg)",
        "trace, evals, evals[-1], cfg)",
        [PINNED],
    ),
    (
        "trust-region totals one evaluation short",
        "solvers.py",
        "trace, evals, trials + 1, cfg)",
        "trace, evals, trials, cfg)",
        [CONTRACT],
    ),
    (
        "residual_tr counts welfare evaluations",
        "solvers.py",
        '"residual_tr": (0, 1, 1)',
        '"residual_tr": (1, 1, 1)',
        [PINNED],
    ),
    (
        "eval_trace one evaluation short",
        "solvers.py",
        "evals.append(trials + 1)",
        "evals.append(trials)",
        [PINNED],
    ),
    (
        "best_x updated on every accepted step",
        "solvers.py",
        "scale_t\n            if err < best_err:\n                best_err = err\n"
        "                best_x = x\n",
        "scale_t\n            best_x = x\n            if err < best_err:\n"
        "                best_err = err\n",
        [CONTRACT],
    ),
    (
        "converged 10x too loose",
        "solvers.py",
        "converged=best_err <= cfg.gradient_tolerance",
        "converged=best_err <= 10 * cfg.gradient_tolerance",
        [CONTRACT],
    ),
    (
        "contraction one iterate over budget",
        "solvers.py",
        "len(trace) <= cfg.max_iterations:",
        "len(trace) <= cfg.max_iterations + 1:",
        [CONTRACT],
    ),
    (
        "no zero-share guard in contraction",
        "solvers.py",
        "        if not shares.all():\n            break",
        "        if False:\n            break",
        ["tests/test_solvers.py::TestContraction::test_zero_model_share_ends_run"],
    ),
    (
        "residual_tr skips the floor",
        "solvers.py",
        "lam, V = _floor_hessian(B_t)",
        'lam, V = np.linalg.eigh(B_t) if method == "residual_tr" else _floor_hessian(B_t)',
        [PINNED],
    ),
    (
        "dogleg stops halfway to the boundary",
        "solvers.py",
        "return -(radius / math.sqrt(gg)) * gt",
        "return -(0.5 * radius / math.sqrt(gg)) * gt",
        [PINNED],
    ),
    (
        "welfare overflow warning printed before the error",
        "solvers.py",
        'with np.errstate(over="ignore"):\n        if method',
        "with np.errstate():\n        if method",
        ["tests/test_cli.py::TestInvert::test_overflowing_welfare_is_one_line_usage_error"],
    ),
    (
        "Newton step divides by the unshifted eigenvalues",
        "solvers.py",
        "return eig + (floor + max(0.0, -eig[0])), V",
        "return eig, V",
        [STEP_PROPERTY],
    ),
    (
        "predicted reduction drops the lam weights",
        "solvers.py",
        "0.5 * float(lam @ pt**2)",
        "0.5 * float(pt @ pt)",
        [PINNED],
    ),
    (
        "gradient rotated by V, not V'",
        "solvers.py",
        "V.T @ g_t",
        "V @ g_t",
        [PINNED],
    ),
    (
        "overflowing utility product accepted",
        "core.py",
        "if not np.isfinite(product).all():",
        "if False:",
        [
            f"{LOGIT_BUILD}::test_overflowing_utilities_rejected",
            f"{PURECHAR_BUILD}::test_overflowing_intercepts_rejected",
        ],
    ),
    (
        "mean-utility finiteness check dropped",
        "core.py",
        "if not np.isfinite(x).all():",
        "if False:",
        [f"{VALIDATORS}::test_mean_utility_rejects_nonfinite"],
    ),
    (
        "ModelEvaluation shares finiteness dropped",
        "core.py",
        "if shares.ndim != 1 or not np.isfinite(shares).all():",
        "if shares.ndim != 1:",
        [f"{VALIDATORS}::test_model_evaluation_rejects_nonfinite_shares", NAN_SHARES],
    ),
    (
        "Jacobian finiteness dropped",
        "core.py",
        "if jac.shape != (J, J) or not np.isfinite(jac).all():",
        "if jac.shape != (J, J):",
        [f"{VALIDATORS}::test_model_evaluation_rejects_nan_jacobian_entry"],
    ),
    (
        "market sizes numpy cannot index passed on",
        "core.py",
        "if max(J * M, n * M, J * n) > np.iinfo(np.intp).max:",
        "if False:",
        [f"{LOGIT_BUILD}::test_sizes_numpy_cannot_index_rejected"],
    ),
    (
        "band padded to the suite-wide length",
        "harness.py",
        "max(trace.size for trace in traces)",
        "max(res.error_trace.size for res in results.values())",
        ["tests/test_harness.py::TestRunSuite::test_band_independent_of_other_methods"],
    ),
    (
        "booleans accepted as integers",
        "modelio.py",
        "if isinstance(value, bool) or not valid(value):",
        "if not valid(value):",
        [MISTYPED_SPEC, BAD_SOLVER],
    ),
    (
        "nested dataclass built unchecked",
        "modelio.py",
        'return _from_doc(kind, doc[key], f"{what} {key}")',
        "return kind(**doc[key])",
        [BAD_SOLVER],
    ),
    (
        "integer numbers kept as integers",
        "modelio.py",
        "return kind(value)",
        "return value",
        ["tests/test_modelio.py::TestSpecFiles::test_integer_numbers_read_as_floats"],
    ),
    (
        "pure-characteristics draws read from a field named nu",
        "harness.py",
        'Family(PureCharMarket, "nu_rest", make_purechar_instance, 2)',
        'Family(PureCharMarket, "nu", make_purechar_instance, 2)',
        [f"{MODEL_FILES}::test_shape_mismatch_rejected", f"{MODEL_FILES}::test_saved_bytes_pinned"],
    ),
    (
        "pure-characteristics spec allowed one attribute",
        "harness.py",
        "make_purechar_instance, 2)",
        "make_purechar_instance, 1)",
        ["tests/test_harness.py::TestExperimentSpec::test_purechar_needs_two_attributes"],
    ),
    (
        "model file family looked up without the string check",
        "modelio.py",
        'family = _field(doc, "family", str, "model file")',
        'family = doc["family"]',
        [f"{MISTYPED_MODEL}[family_list]"],
    ),
    (
        "floor without the relative term",
        "solvers.py",
        "floor = max(REGULARIZATION_FLOOR, max(64, J * (J + 1)) * _EPS * max(-eig[0], eig[-1]))",
        "floor = REGULARIZATION_FLOOR",
        [STEP_PROPERTY],
    ),
]


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for `tests` run against the package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=REPO, env=env, capture_output=True).returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(REPO / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        if run_tests(clean, named) != 0:
            print("the named tests fail on the unmutated source; fix them first")
            return 1
        for k, (name, file, old, new, tests) in enumerate(MUTANTS):
            copy = Path(tmp) / f"m{k}"
            shutil.copytree(clean, copy)
            path = copy / "demandinv" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"STALE     {name}: old text occurs {text.count(old)} times in {file}")
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            code = run_tests(copy, tests)
            verdict = {1: "killed"}.get(code, "survived" if code == 0 else f"ERROR {code}")
            print(f"{verdict:9} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
            bad += verdict != "killed"
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
