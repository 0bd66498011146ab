"""Catalog of the extremal configuration, the construction records, and
the verification ledger (import wahlkit.catalog.verify for the latter)."""
from .a0 import (A0Constraints, CatalogError, FIBERS, SECTIONS,
                 ReconstructionResult, build_a0, frozen_a0, incidences_of,
                 load_a0, reconstruct_a0)
from .records import (BlowupSpec, ChainSpec, RecordError, SurfaceRecord,
                      format_record, parse_record, parse_records_file)

__all__ = [name for name in dir() if not name.startswith("_")]
