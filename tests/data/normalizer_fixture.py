"""Normalizer fixture: every host node kind the canonical grammar folds."""
import os, sys as system
from . import sibling
from ..pkg.mod import name as alias_name, other

CONST = (True, False, None, 1, 2.5, 3j, 'text', b'bytes', ...)
table = {'a': 1, **CONST_MAP}
del table['a'], table[0]
x: int
y: int = 2
total = count = 0
total += 1
items = [1, *rest]
flags = {1, 2}
first, *others = items
shape = grid[1:2, ::3, 4]
window = grid[lo:hi:step]
item = grid[0]
pair = grid[a, b]


class A(**kw):
    pass


class B(Base, metaclass=Meta):
    """Docstring."""

    attr = 1


@decorator
@other.decorator(arg)
def plain(a, b=1, /, c=2, *args, d, e=3, f, **kwargs) -> int:
    global CONST
    if a and b or not c:
        return a if b else c
    elif -a < b <= c is not None:
        return ~a
    else:
        pass
    while a > 0:
        a -= 1
        if a % 2:
            continue
        break
    else:
        a = None
    for i, j in pairs:
        print(i, j, sep='', *extra, **options)
    else:
        assert i, 'message'
    return f'{a!r:>{b}} and {c}'


def gen():
    outer = 0

    def inner():
        nonlocal outer
        outer = yield
        yield outer
        yield from range(3)
    return inner


async def coro(session):
    async for row in session.rows():
        await row.save()
    async with session.lock() as held, session.other():
        pass
    with open('a') as fa, open('b') as fb, open('c'):
        data = fa.read() + fb.read()


def comprehensions(seq):
    squares = [v ** 2 for v in seq if v if v > 1 for w in seq]
    unique = {v for v in seq}
    index = {k: v for k, v in enumerate(seq)}
    lazy = sum(v for v in seq)
    fn = lambda q, *r, **s: q + len(r)
    bare = lambda: None
    if (n := len(seq)) > 10:
        return n, unique, index, lazy, fn, bare
    return squares


def errors():
    try:
        risky()
    except (ValueError, TypeError) as exc:
        raise RuntimeError('wrapped') from exc
    except KeyError:
        raise
    except:
        pass
    else:
        ok()
    finally:
        cleanup()
    try:
        risky()
    except OSError:
        raise Failure
    try:
        risky()
    finally:
        cleanup()
