from .query import AGGREGATES, QueryTask, ResultTable
from .store import Column, Partition, SubjectSpec, Warehouse
from .subjects import (SUBJECT_BEAM, SUBJECT_ENERGY, SUBJECT_INTERFERENCE,
                       SUBJECT_THROUGHPUT, bundled_subjects,
                       create_bundled_subjects)

__all__ = [n for n in dir() if not n.startswith("_")]
