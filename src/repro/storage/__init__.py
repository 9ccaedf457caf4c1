"""Page-based storage: records, slotted pages, pager, buffer cache."""

from .buffer import BufferCache
from .page import (FREE, HEADER_SIZE, INTERNAL, LEAF, META, NO_PAGE,
                   PAGE_MAGIC, Page, parse_page_tuples)
from .pager import Pager, PagerStats
from .record import RECORD_HEADER_SIZE, TupleVersion

__all__ = [
    "BufferCache", "FREE", "HEADER_SIZE", "INTERNAL", "LEAF",
    "META", "NO_PAGE", "PAGE_MAGIC", "Page", "Pager", "PagerStats",
    "RECORD_HEADER_SIZE", "TupleVersion", "parse_page_tuples",
]
