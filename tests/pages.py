"""Leaf page payloads for tests of the pager and the buffer pool, which
carry one image format: packed keys beside a record list."""


def leaf(*records):
    """A page payload holding *records*, each under a zero 1-d key."""
    return bytes(8 * len(records)), list(records)


def unpacked(disk, page_id, page):
    """*page* as a read or a buffer frame holds it, its records block
    decoded if it is still encoded."""
    keys, records = page
    if type(records) is bytes:
        records = disk.decode(page_id, records)
    return keys, records
