"""fixscope: mine recurring bug-fix patterns and the contexts they live in.

A batch pipeline over code-review / git history: it extracts AST-level
hunks from bug-fixing changes, characterizes *what* changed via weighted
node-type/role feature vectors, discovers recurring fix patterns with
single-linkage clustering, and characterizes *where* changes occur via
nonparametric statistics over context features.
"""

__version__ = "0.1.0"

from fixscope.grammar import (  # noqa: F401
    AstNode,
    SourceSpan,
    parse_source,
    node_role,
    tree_height,
)
from fixscope.diffing import (  # noqa: F401
    ChangeLabel,
    EnhancedAst,
    Hunk,
    align_versions,
    build_diff_ast,
    extract_hunks,
)
from fixscope.features import (  # noqa: F401
    WeightConfig,
    FeatureVector,
    FeatureMatrix,
    hunk_feature_vector,
    assemble_matrix,
)
from fixscope.context import (  # noqa: F401
    categorize,
    extract_context,
)
