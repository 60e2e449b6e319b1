"""Mutation check: each mutant below breaks the library on purpose, and the
tests named with it must fail.

For every mutant the script copies src/ to a temporary directory, replaces
one exact piece of text in one file, and runs the named tests against the
copy. It prints killed or survived per mutant. It exits 1 when a mutant
survives, when a mutant's old text no longer occurs exactly once in its file,
or when the named tests do not all pass on the unmutated copy. It uses the
standard library only. pytest does not collect it, since it runs pytest once
per mutant (3 min 36 s for 90 mutants on two cores). Run it from anywhere:

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
PURECHAR_ACCURACY = "tests/test_purechar.py::TestAccuracy::test_round_off_within_bounds"
GENERIC_SWEEP = (
    "tests/test_purechar.py::TestEvaluationPaths::test_sweep_matches_vectorized_on_generic_market"
)
SCIPY_IMPORT = (
    "tests/test_solvers.py::TestTrustRegionStep::test_scipy_loaded_on_first_purechar_evaluation"
)
LOGIT_PROPERTY = "tests/test_logit.py::TestInvariants::test_random_markets_and_utilities"
LOGIT_PSD = "tests/test_logit.py::TestInvariants::test_jacobian_psd_on_random_markets"
LOGIT_CACHED = "tests/test_logit.py::TestCachedUtilities"
LOGIT_CACHE = f"{LOGIT_CACHED}::test_cache_read_only_and_unchanged"
LOGIT_TABLE = f"{LOGIT_CACHED}::test_table_read_only_and_unchanged"
LOGIT_ACCURACY = "tests/test_logit.py::TestAccuracy::test_round_off_within_bounds"
LOGIT_GUARD = f"{LOGIT_CACHED}::test_each_side_of_the_guard_matches_reference_loop"
NONFINITE = "tests/test_logit.py::TestNonFiniteUtilities"
STEP_PROPERTY = "tests/test_solvers.py::TestTrustRegionStep::test_floored_step_properties"
MISTYPED_SPEC = "tests/test_cli.py::TestSimulate::test_mistyped_spec_field_is_usage_error"
BAD_SOLVER = "tests/test_cli.py::TestSimulate::test_bad_solver_setting_is_usage_error"
MISTYPED_MODEL = "tests/test_cli.py::TestInvert::test_mistyped_model_field_is_usage_error"
MODEL_FILES = "tests/test_modelio.py::TestModelFiles"
LOGIT_BUILD = "tests/test_logit.py::TestInstanceConstruction"
PURECHAR_BUILD = "tests/test_purechar.py::TestInstanceConstruction"
SCRATCH = "tests/test_purechar.py::TestScratch"
TABLE = "tests/test_purechar.py::TestCrossingTable"
TABLE_SWEEP = f"{TABLE}::test_cached_and_per_call_blocks_bitwise_equal"
SAME_SHAPE = f"{SCRATCH}::test_other_markets_between_calls_change_nothing"
VALIDATORS = "tests/test_core.py::TestValidators"
SYNTHETIC = "tests/test_core.py::TestSyntheticMarket"
NAN_SHARES = "tests/test_solvers.py::TestSharedContract::test_nan_shares_raise"
WELFARE_READS = "tests/test_solvers.py::TestWelfareReads"
DEFERRED = "tests/test_core.py::TestDeferredWelfare"
HUGE_WELFARE = f"{DEFERRED}::test_welfare_whose_sum_overflows_is_finite"
REPORT_BYTES = "tests/test_modelio.py::TestReportBytes"
LAYOUTS = "tests/test_modelio.py::TestLayouts::test_layout_reads_what_it_writes"
MALFORMED_FILE = "tests/test_cli.py::TestInvert::test_malformed_model_json_is_usage_error"
VECTOR_FILE = "tests/test_cli.py::TestInvert::test_bad_vector_file_is_usage_error"
NON_NUMBER = "tests/test_cli.py::TestInvert::test_non_number_entries_are_usage_error"
HUGE_ENTRY = "tests/test_cli.py::TestInvert::test_huge_integer_entry_is_usage_error"
TRUTH_UNKNOWN = [
    "tests/test_cli.py::TestInvert::test_truth_file_unknown_key_is_usage_error",
    "tests/test_modelio.py::TestTruthAndShares::test_truth_unknown_keys_rejected",
]

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
        "np.maximum.reduce(cross, axis=0, out=Lc)",
        "Lc[...] = cross[-1]",
        [GENERIC_SWEEP],
    ),
    (
        "coincident lines' NaN crossing dropped from the left bound",
        "purechar.py",
        "np.maximum.reduce(cross, axis=0, out=Lc)",
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
        "left bound of the lowest line not set on each call",
        "purechar.py",
        "        L[0] = -np.inf\n",
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
        "np.less(L, R).T.ravel().nonzero()[0]",
        "np.less(L, R).ravel().nonzero()[0]",
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
        'np.errstate(over="ignore", divide="ignore", invalid="ignore"):\n            np.divide(',
        "np.errstate():\n            np.divide(",
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
        "deferred welfare reads the breakpoints from the scratch",
        "purechar.py",
        "am, pd = a * mass, pdf * db",
        "am, pd = a * mass, _phi(t[1:-1]) * db",
        [f"{DEFERRED}::test_read_after_same_shape_call_matches_fresh[False-purechar]"],
    ),
    (
        "tie slice left undivided by the slope gap",
        "purechar.py",
        "cross[e:] /= g_tail",
        "pass",
        [TIES, TABLE_SWEEP],
    ),
    (
        "tie slice starts one row late",
        "purechar.py",
        "e = int(bad[0]) if bad.size else c",
        "e = min(int(bad[0]) + 1, c) if bad.size else c",
        [TIES],
    ),
    (
        "d divided by the slope gap on the tie slice too",
        "purechar.py",
        "div[c, :e] = gaps[c, :e]",
        "div[c, :c] = gaps[c, :c]",
        [TIES, TABLE_SWEEP],
    ),
    (
        "table blocks past the cap not formed on each call",
        "purechar.py",
        "T = _block(self._lines, e, g_head, cross)",
        "T = cross",
        [TABLE_SWEEP],
    ),
    (
        "table blocks cached writable",
        "purechar.py",
        "                    T.setflags(write=False)\n",
        "",
        [f"{TABLE}::test_tables_read_only"],
    ),
    (
        "welfare drops the density term",
        "purechar.py",
        "pd = a * mass, pdf * db",
        "pd = a * mass, 0.0 * db",
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
        "np.add.reduce(S[:J], axis=1)",
        "np.add.reduce(S[:J, :J], axis=1)",
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
        "np.square(np.minimum(np.abs(t), _PHI_CLIP))",
        "np.square(t)",
        ["tests/test_purechar.py::TestTiedSlopes::test_extreme_utilities_raise_no_warning"],
    ),
    (
        "tail masses taken as 1 - Phi(|t|), which cancels",
        "purechar.py",
        "np.copysign(ndtr(s, out=s), t, out=s)",
        "np.copysign(1.0 - ndtr(-s), t, out=s)",
        [PURECHAR_ACCURACY],
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
        "w = shift + np.log(denom)",
        "w = np.log(denom)",
        [LOGIT_PROPERTY, LOGIT_GUARD],
    ),
    (
        "fallback outside probability taken as 1/denom",
        "logit.py",
        "outside = base * inv",
        "outside = inv",
        [f"{LOGIT_ACCURACY}[beyond_room]", f"{LOGIT_GUARD}[outside]"],
    ),
    (
        "fallback outside numerator dropped",
        "logit.py",
        "np.exp(-shift)",
        "1.0",
        [f"{LOGIT_ACCURACY}[beyond_room]", f"{LOGIT_GUARD}[outside]"],
    ),
    (
        "logit welfare summed before dividing where the sum overflows",
        "logit.py",
        "float((w / n).sum())",
        "float(w.sum() / n)",
        [f"{HUGE_WELFARE}[1e+307-logit]"],
    ),
    (
        "pure-characteristics welfare summed before dividing where the sum overflows",
        "purechar.py",
        "float(np.sum(am / n) + np.sum(pd / n))",
        "float(np.sum(am) + np.sum(pd)) / n",
        [f"{HUGE_WELFARE}[1e+307-purechar]"],
    ),
    (
        "Jacobian diagonal as shares - mean(p²)",
        "logit.py",
        "np.fill_diagonal(cross, -(p @ outside + cross.sum(axis=1)))",
        "np.fill_diagonal(cross, -(p.sum(axis=1) - (p * p).sum(axis=1)))",
        [LOGIT_PSD],
    ),
    (
        "evaluate writes into the cached utilities",
        "logit.py",
        "v = self._zn + x[:, None]",
        "v = self._zn; v.setflags(write=True); v += x[:, None]",
        [LOGIT_CACHE, LOGIT_TABLE],
    ),
    (
        "exp table guard without the log(J + 1) headroom",
        "logit.py",
        "room = 700.0 - float(np.log(self.J + 1.0) + np.abs(zn).max())",
        "room = 700.0 - float(np.abs(zn).max())",
        [f"{LOGIT_CACHED}::test_many_products_near_the_room_do_not_overflow"],
    ),
    (
        "Euler's constant off by 2e-14",
        "core.py",
        "EULER_GAMMA = 0.5772156649015329",
        "EULER_GAMMA = 0.5772156649015529",
        [f"{LOGIT_ACCURACY}[moderate]"],
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
        "        if not np.logical_and.reduce(shares):\n            break",
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
        "residual_tr's round-off scale taken from the largest |r| in place of their sum",
        "solvers.py",
        "scale = float(np.add.reduce(abs_r))",
        "scale = float(np.maximum.reduce(abs_r))",
        [
            "tests/test_solvers.py::TestResidualTrustRegion::"
            "test_state_reports_both_norms_of_the_residual"
        ],
    ),
    (
        "residual_tr reads the welfare",
        "solvers.py",
        "        f = 0.5 * float(r @ r)\n",
        "        f = 0.5 * float(r @ r) + 0.0 * ev.welfare\n",
        [WELFARE_READS],
    ),
    (
        "Newton step divides by the unshifted eigenvalues",
        "solvers.py",
        "return eig + (floor + max(0.0, -lo)), V",
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
        "deferred welfare computed with numpy's overflow warning on",
        "core.py",
        'with np.errstate(over="ignore"):\n                welfare = _finite_welfare(welfare())',
        "if True:\n                welfare = _finite_welfare(welfare())",
        [
            f"{DEFERRED}::test_overflowing_welfare_raises_on_read_without_warning",
            "tests/test_cli.py::TestInvert::test_convex_tr_from_overflowing_start_is_valid_run",
        ],
    ),
    (
        "vector finiteness check dropped",
        "core.py",
        "if finite and not np.isfinite(v).all():",
        "if False:",
        [
            f"{VALIDATORS}::test_mean_utility_rejects_nonfinite",
            f"{VALIDATORS}::test_share_vector_rejects_nonfinite",
        ],
    ),
    (
        "invert checks the target without the model's J",
        "solvers.py",
        "target = as_share_vector(sigma_star, model.J)",
        "target = as_share_vector(sigma_star)",
        [f"{VECTOR_FILE}[shares_length]"],
    ),
    (
        "ModelEvaluation shares finiteness dropped",
        "core.py",
        "if shares.ndim != 1 or not (\n"
        "            math.isfinite(sum(shares.tolist())) or np.isfinite(shares).all()\n"
        "        ):",
        "if shares.ndim != 1:",
        [f"{VALIDATORS}::test_model_evaluation_rejects_nonfinite_shares", NAN_SHARES],
    ),
    (
        "sum-first check without the elementwise fallback",
        "core.py",
        "math.isfinite(sum(shares.tolist())) or np.isfinite(shares).all()",
        "math.isfinite(sum(shares.tolist()))",
        [f"{VALIDATORS}::test_model_evaluation_accepts_finite_entries_whose_sum_overflows"],
    ),
    (
        "non-finite x sent to the fallback instead of raising",
        "logit.py",
        '        x = _as_vector(x, "mean utility", self.J)  # rejects NaN and infinities\n',
        "",
        [f"{NONFINITE}::test_nonfinite_coordinate_rejected"],
    ),
    (
        "table guard takes max x, not max|x|",
        "logit.py",
        "np.maximum.reduce(np.abs(x))",
        "np.maximum.reduce(x)",
        [f"{NONFINITE}::test_nonfinite_coordinate_rejected[table--inf-False]"],
    ),
    (
        "Jacobian finiteness dropped",
        "core.py",
        "if jacobian.shape != (J, J) or not finite:",
        "if jacobian.shape != (J, J):",
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
        "max(trace.size for trace in runs)",
        "max(trace.size for runs in traces.values() for trace in runs)",
        ["tests/test_harness.py::TestRunSuite::test_band_independent_of_other_methods"],
    ),
    (
        "degeneracy statistics filed in the wrong fields",
        "harness.py",
        "return outcomes, (min_inside, outside, min(min_inside, outside))",
        "return outcomes, (outside, min_inside, min(min_inside, outside))",
        ["tests/test_harness.py::TestRunSuite::test_degeneracy_statistics"],
    ),
    (
        "degeneracy rows written with the fields out of order",
        "modelio.py",
        "for f in dataclasses.fields(obj):",
        "for f in reversed(dataclasses.fields(obj)):",
        ["tests/test_modelio.py::TestRunArtifacts::test_degeneracy_dict", REPORT_BYTES],
    ),
    (
        "tuples written as tuples",
        "modelio.py",
        "value = list(value) if isinstance(value, tuple) else value.tolist()",
        "value = value if isinstance(value, tuple) else value.tolist()",
        [f"{LAYOUTS}[ExperimentSpec]"],
    ),
    (
        "nested dataclass written as the object itself",
        "modelio.py",
        "if dataclasses.is_dataclass(value):\n            value = _to_doc(value)",
        "if dataclasses.is_dataclass(value):\n            pass",
        [f"{LAYOUTS}[ExperimentSpec]"],
    ),
    (
        "model file always written with a seed",
        "modelio.py",
        "seed = None if seed is None else int(seed)",
        "seed = 0 if seed is None else int(seed)",
        [f"{MODEL_FILES}::test_seed_key_optional", f"{MODEL_FILES}::test_saved_bytes_pinned"],
    ),
    (
        "negative share shown as a numpy repr",
        "core.py",
        "({float(s[bad[0]])!r})",
        "({s[bad[0]]!r})",
        ["tests/test_cli.py::TestInvert::test_negative_share_message_exact"],
    ),
    (
        "a failed run dropped from failures",
        "harness.py",
        "failures[(method, replication)] = outcome",
        "pass",
        [
            "tests/test_harness.py::TestRunSuite::test_failures_recorded_and_excluded_from_bands",
            REPORT_BYTES,
        ],
    ),
    (
        "repeated method accepted",
        "harness.py",
        "if method in methods[:k]:",
        "if False:",
        [
            "tests/test_harness.py::TestExperimentSpec::test_invalid_specs_rejected",
            "tests/test_cli.py::TestSimulate::test_repeated_method_is_usage_error",
        ],
    ),
    (
        "undecodable JSON files raise past read_json",
        "modelio.py",
        "except (ValueError, RecursionError) as exc:",
        "except ZeroDivisionError as exc:",
        [MALFORMED_FILE],
    ),
    (
        "JSON decode errors without the file's path",
        "modelio.py",
        'f"invalid JSON: {path}: {exc}"',
        'f"invalid JSON: {exc}"',
        [f"{MALFORMED_FILE}[syntax-truth]"],
    ),
    (
        "a vector file holding null read as no vector",
        "modelio.py",
        "if isinstance(doc, dict):\n        doc = next(",
        "if not isinstance(doc, dict):\n        return doc\n    if True:\n        doc = next(",
        [f"{VECTOR_FILE}[x0_null_J3]"],
    ),
    (
        "JSON strings and booleans read as numbers",
        "modelio.py",
        "elif type(item) not in (int, float):",
        "elif type(item) not in (int, float, str, bool):",
        [f"{NON_NUMBER}[model_z_string]", f"{NON_NUMBER}[shares_key_false]"],
    ),
    (
        "model file seed unchecked",
        "modelio.py",
        "if model.seed < 0:",
        "if False:",
        [f"{MISTYPED_MODEL}[seed_negative]"],
    ),
    (
        "truth file keys other than its two dropped before the read",
        "modelio.py",
        'truth = _from_doc(_TruthFile, read_json(path), "truth file")',
        'doc = {k: v for k, v in read_json(path).items() if k in ("x_star", "sigma_star")}\n'
        '    truth = _from_doc(_TruthFile, doc, "truth file")',
        TRUTH_UNKNOWN,
    ),
    (
        "an integer beyond a double raises past as_float_array",
        "core.py",
        "    except OverflowError:\n        raise InvalidInputError(f\"{name} has an integer",
        "    except ZeroDivisionError:\n        raise InvalidInputError(f\"{name} has an integer",
        [HUGE_ENTRY],
    ),
    (
        "an inline share list looked up as a file name first",
        "cli.py",
        "if os.path.exists(text):",
        "if Path(text).exists():",
        ["tests/test_cli.py::TestInvert::test_long_inline_share_list"],
    ),
    (
        "replication count uncapped",
        "harness.py",
        "if self.replications > MAX_REPLICATIONS:",
        "if False:",
        [
            "tests/test_harness.py::TestExperimentSpec::test_replication_count_capped",
            "tests/test_cli.py::TestSimulate::test_replication_count_beyond_cap_is_usage_error",
        ],
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
        "purechar.py",
        'DRAWS = "nu_rest"',
        'DRAWS = "nu"',
        [f"{MODEL_FILES}::test_shape_mismatch_rejected", f"{MODEL_FILES}::test_saved_bytes_pinned"],
    ),
    (
        "pure-characteristics spec allowed one attribute",
        "harness.py",
        "FAMILIES[self.model_family].FIXED + 1",
        "1",
        ["tests/test_harness.py::TestExperimentSpec::test_purechar_needs_two_attributes"],
    ),
    (
        "maker drops the first of M draws in place of drawing M - FIXED",
        "core.py",
        "random(M - cls.FIXED)",
        "random(M)[cls.FIXED :]",
        [f"{MODEL_FILES}::test_saved_bytes_pinned[purechar-None]"],
    ),
    (
        "fixed taste coefficients not checked",
        "core.py",
        "if (beta[:fixed] != 1.0).any():",
        "if False:",
        [f"{SYNTHETIC}::test_invalid_market_rejected[purechar-fixed_beta_not_one]"],
    ),
    (
        "JSON values of any type read as strings",
        "modelio.py",
        'str: ("a string", lambda v: isinstance(v, str)),',
        'str: ("a string", lambda v: True),',
        [f"{MISTYPED_MODEL}[family_list]", f"{MISTYPED_SPEC}[model_family_number]"],
    ),
    (
        "skeleton leaves a derived cache writable",
        "core.py",
        "value.setflags(write=False)",
        "pass",
        [
            f"{SYNTHETIC}::test_derived_entries_held_after_the_checks",
            f"{SYNTHETIC}::test_every_array_held_is_read_only",
        ],
    ),
    (
        "floor without the relative term",
        "solvers.py",
        "floor = max(REGULARIZATION_FLOOR, max(64, J * (J + 1)) * _EPS * max(-lo, hi))",
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
