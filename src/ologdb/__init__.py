"""A categorical database engine for ologs.

Schemas are finite category presentations (directed multigraphs plus path
equivalences), instances are set-valued functors stored as row tables,
translations migrate data functorially, and spans of translations glue
schemas by pushout.  All equational reasoning is bounded congruence
closure: answers are Derivable or NotDerivableWithinBound.
"""

from .schema import (
    ArrowId,
    BoundTooSmallError,
    CompositionError,
    Derivability,
    Graph,
    OlogError,
    ParallelismError,
    Path,
    PathEquivalence,
    PathPartition,
    ProductAnnotation,
    Schema,
    SchemaError,
    UnknownArrowError,
    UnknownVertexError,
    VertexId,
    compose,
    congruence_closure,
    entails,
    enumerate_paths,
    trivial_path,
)
from .dsl import DslParseError, parse_schema, serialize_schema
from .instance import (
    ElementsCategory,
    Instance,
    InvalidInstanceError,
    ProgressiveUpdate,
    UpdateResult,
    ValidationReport,
    apply_update,
    elements,
    eval_path,
    instance_from_json,
    instance_to_json,
    make_instance,
    validate,
)
from .migration import (
    SigmaMode,
    Translation,
    TranslationReport,
    check_translation,
    compose_translations,
    identity_translation,
    sigma,
    translation_from_json,
)
from .colimit import (
    SchemaPushout,
    SetPushout,
    UniversalOutcome,
    pushout_schemas,
    pushout_sets,
    verify_universal,
)
from .specfiber import (
    Fact,
    FiberOrder,
    Specification,
    closure,
    entailment_order,
    parse_asserted,
    parse_specification,
    render_hasse,
    satisfies,
)

__version__ = "0.1.0"
