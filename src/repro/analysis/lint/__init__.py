"""repro.analysis.lint — repo-aware static analysis (``repro lint``).

An AST-based framework with a rule registry, per-rule configuration,
``file:line`` findings with line-independent fingerprints, inline
suppressions, and committed-baseline support.  The three built-in
rules (ASYNC-BLOCK, LOCK-GUARD, EXPORT-SANITY) machine-check the
concurrency and export invariants the runtime modules state
informally — see docs/ANALYSIS.md for the catalog.

Programmatic use::

    from repro.analysis.lint import Project, default_config, run_lint
    report = run_lint(Project("."), default_config())
    for finding in report.findings:
        print(finding.render())
"""

from repro.analysis.lint.baseline import (
    BaselineError,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.lint.config import LintConfig, default_config
from repro.analysis.lint.engine import LintReport, run_lint
from repro.analysis.lint.model import Finding
from repro.analysis.lint.project import Project
from repro.analysis.lint.registry import describe_rules, get_rules, rule_names

__all__ = [
    "BaselineError",
    "Finding",
    "LintConfig",
    "LintReport",
    "Project",
    "default_config",
    "describe_rules",
    "get_rules",
    "load_baseline",
    "rule_names",
    "run_lint",
    "split_by_baseline",
    "write_baseline",
]
