"""fixscope: mine recurring bug-fix patterns and the contexts they live in.

A batch pipeline over code-review / git history: it extracts AST-level
hunks from bug-fixing changes, characterizes *what* changed via weighted
node-type/role feature vectors, discovers recurring fix patterns with
single-linkage clustering, and characterizes *where* changes occur via
nonparametric statistics over context features.
"""

__version__ = "0.1.0"
