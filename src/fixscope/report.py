"""Static report rendering: counts, cluster tables, relevance checkmarks."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from fixscope.diffing import indented_json

if TYPE_CHECKING:  # the pipeline imports this module, and calls it at run time
    from fixscope.pipeline import RunReport

CHECK = "✓"


def _cell(value) -> str:
    """``value`` as one table cell: a ``|`` would end the cell and a line
    break the row, so the first is escaped and each break is a ``<br>``."""
    return re.sub(r"\r\n?|\n", "<br>", str(value).replace("|", "\\|"))


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(map(_cell, header)) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(map(_cell, row)) + " |")
    return lines


def render_report(report: RunReport, relevance_clusters: list[str],
                  relevance_rows: list[list[str]],
                  appendix_rows: list[dict], untested: dict[str, str]) -> str:
    """Self-contained markdown document for one pipeline run.  ``untested``
    maps each BUG-FIX cluster that could not be tested to the reason."""
    lines = ["# fixscope run report", ""]

    lines.append("## Corpus counts")
    lines.append("")
    counts = report.counts
    lines += _table(
        ["changes scanned", "changes matched", "files", "parsed", "skipped", "hunks"],
        [[counts.get("changes_scanned", 0), counts.get("changes", 0),
          counts.get("files", 0), counts.get("parsed", 0),
          counts.get("skipped", 0), counts.get("hunks", 0)]])
    lines.append("")

    lines.append("## Clustering")
    lines.append("")
    cophenetic = ("undefined (degenerate input)" if report.cophenetic is None
                  else f"{report.cophenetic:.4f}")
    cutoff = "n/a" if report.cutoff is None else f"{report.cutoff:.4f}"
    lines.append(f"- cophenetic correlation coefficient: {cophenetic}")
    lines.append(f"- inconsistency cutoff: {cutoff}")
    lines.append(f"- retained clusters: {len(report.clusters)}")
    lines.append("")

    lines.append("## Clusters")
    lines.append("")
    if report.clusters:
        rows = [[c["id"], c["size"], c["label"], c["description"] or "-"]
                for c in report.clusters]
        lines += _table(["cluster", "size", "triage", "description"], rows)
    else:
        lines.append("No clusters met the minimum size threshold.")
    lines.append("")

    lines.append("## Triage distribution")
    lines.append("")
    tally: dict[str, int] = {}
    for entry in report.clusters:
        tally[entry["label"]] = tally.get(entry["label"], 0) + 1
    if tally:
        lines += _table(["triage", "clusters"],
                        [[label, tally[label]] for label in sorted(tally)])
    else:
        lines.append("Nothing to triage.")
    lines.append("")

    lines.append("## Context relevance")
    lines.append("")
    if report.relevance_withheld:
        lines.append("Withheld: no BUG-FIX cluster could be tested." if untested else
                     "Withheld: no cluster is triaged BUG-FIX yet. Provide an "
                     "annotation file and re-run the stats stage.")
    else:
        header = ["category"] + [str(c) for c in relevance_clusters]
        rows = [[row[0]] + [CHECK if cell else "" for cell in row[1:]]
                for row in relevance_rows]
        lines += _table(header, rows)
        lines.append("")
        lines.append("### Relevant categories across BUG-FIX clusters")
        lines.append("")
        dist_rows = [[category, hits]
                     for category, hits in report.category_distribution.items() if hits]
        if dist_rows:
            lines += _table(["category", "clusters"], dist_rows)
        else:
            lines.append("No relevant categories.")
        lines.append("")
        lines.append("### Appendix: relevant features (z / p)")
        lines.append("")
        if appendix_rows:
            rows = [[r["cluster_id"], r["feature"], r["category"],
                     f'{float(r["z"]):.3f}', f'{float(r["p"]):.2e}']
                    for r in appendix_rows]
            lines += _table(["cluster", "feature", "category", "z", "p"], rows)
        else:
            lines.append("No relevant features.")
    if untested:
        lines += ["", "### BUG-FIX clusters not tested", ""]
        lines += [f"- cluster {cid}: {reason}" for cid, reason in untested.items()]
    lines.append("")

    lines.append("## Provenance")
    lines.append("")
    lines.append(f"- taxonomy checksum: `{report.taxonomy_checksum}`")
    lines.append(f"- category table checksum: `{report.category_table_checksum}`")
    lines.append("")
    lines.append("## Configuration echo")
    lines.append("")
    lines.append("```json")
    lines.append(indented_json(report.config))
    lines.append("```")
    lines.append("")
    return "\n".join(lines)
