"""Source hygiene: every imported name is used, and so is every module-level
name of the package and every method or property of its classes.

Guards that need no linter. Each module of the package and of the test
suite is parsed with `ast`; a name bound by an import must be read somewhere
in the file or be listed in the module's `__all__`. `from __future__` imports
are exempt. A name bound at the top level of a package module (an assignment,
function or class), and each method or property of a top-level class (not a
dataclass field), must be read, as a name, an attribute or an imported name,
by the program: a package module other than `__init__.py`, or a benchmark
source. Tests, re-exports and `__all__` do not keep a name alive, so the
public API is what the program reads. Dunder names are exempt. Only
`field.py` reads a field context's `log_table`, so the element products are
formed in one place. The package
holds no `assert` statement, since `python -O` strips them: each fact it
checks raises an error of its own. Only the correlation sweep,
`sequences.correlation_distribution`, holds a matrix product (`@`,
`np.matmul` or `np.dot`), and only `sequences.py` names a float dtype; every
other sweep counts bits or runs the Walsh transform. Only
`sequences.py` and `distribution.py` pack bits (`np.packbits`) or count
packed ones (`np.bitwise_count`): every per-pair sweep reads unpacked
uint8 trace rows. Only S and the gamma-sweep read the Walsh sweep
`expsum._s_counts`, and only that sweep calls `_walsh` and proves the
gamma axis; only T and Artin-Schreier call the T table `expsum._t_table`,
the one count of the bits of a trace row (the code weights relabel T and
S); only T, the Walsh sweep, the kernel sizes and Artin-Schreier read the
orbit rule `expsum._pair_orbits`, the one function that takes a gcd of
e_quad and the one that cuts the pairs into blocks (`_blocks`), at one
bound for every sweep; only that rule, the gamma axis and cyclicity
lean on the orbit lemma (made once per field, and per exponent, and read
by all of its callers), and no full-table orbit proof (`_row_closure`,
`_orbit_closure`) is defined in the package; every row comes from the one
builder `_rows`, which only the trace rows and the value rows
`_monomial_rows` call; only T, the T table, the Walsh sweep,
Artin-Schreier and the codewords build trace rows, and only the point
counts and the phi rows build value rows; and only Artin-Schreier counts
points.
Only the correlation sweep, `sequences.correlation_distribution`, sums its
work over threads (`_summed`, `_thread_count`), and only
`distribution._summed` opens a thread pool, so no per-pair check is
threaded. Only `field._cached` touches a field context's `_cache`, so every
table and proof kept there is made once and kept read-only. Every entry of
the check registry is a `cli.Check`, so `verify` runs one kind of check, and
only `_Run._record`, which sets each record's status, and
`VerificationReport.exit_code`, which grades them, read a status name: a
check returns its detail or raises. The one write to the process
environment in the package is the bound on OpenBLAS's idle spin,
`os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "18")` in `__init__.py`,
made before any import but that of os, so before numpy loads.
"""

import ast
from pathlib import Path

import pytest

from kasamilab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kasamilab").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = ([p for p in PACKAGE if p.name != "__init__.py"]
           + sorted((ROOT / "bench").glob("*.py")))


def _exported(tree):
    """Names listed in a module's `__all__`."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(source):
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    kept = read | _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in kept)


def _names_read(source):
    """Names a source reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_names(modules, readers):
    """(module, line, name) of every name bound at the top level of a source
    in `modules` (module -> source), and every method or property of a
    top-level class (named Class.member; a dataclass field is not one), that
    no source in `readers` reads; dunder names are exempt."""
    read = set().union(*map(_names_read, readers))
    dead = []
    for module, source in modules.items():
        tree = ast.parse(source)
        bound = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                bound += [(member.lineno, f"{node.name}.{member.name}")
                          for member in node.body
                          if isinstance(member, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                bound += [(t.lineno, t.id) for target in targets
                          for t in ast.walk(target) if isinstance(t, ast.Name)]
        dead += [(module, line, name) for line, name in bound
                 if (short := name.rpartition(".")[2]) not in read
                 and not (short.startswith("__") and short.endswith("__"))]
    return dead


def test_guard_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, numpy.linalg\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "print(numpy.linalg, d)\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_dead_name_guard_flags_only_unread_names():
    # `exported` is listed in `__all__` but read by no reader; the unread
    # field `depth` and dunder `__len__` are exempt, `spare` is not.
    lib = ("__all__ = ['public', 'exported']\n"
           "__version__ = '1'\n"
           "CASES = ('a', 'b')\n"
           "LIMIT, _SPARE = 3, 4\n"
           "def public(): return LIMIT\n"
           "def exported(): pass\n"
           "def _helper(): pass\n"
           "class _Shape:\n"
           "    depth: int = 0\n"
           "    def __len__(self): return 0\n"
           "    @property\n"
           "    def area(self): return self.width\n"
           "    def width(self): return 1\n"
           "    @property\n"
           "    def spare(self): return 0\n")
    user = "import lib\nfrom lib import _helper, public\nlib._Shape().area\n"
    assert dead_names({"lib": lib}, [lib, user]) == [
        ("lib", 3, "CASES"), ("lib", 4, "_SPARE"), ("lib", 6, "exported"),
        ("lib", 15, "_Shape.spare")]


def test_no_dead_module_level_names():
    modules = {path.name: path.read_text() for path in PACKAGE}
    assert dead_names(modules, [path.read_text() for path in READERS]) == []


FIELD_TABLES = ("log_table",)


def table_reads(source):
    """(line, name) of every read of a context's log table."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in FIELD_TABLES)


def test_table_guard_flags_only_the_field_tables():
    source = "row = ctx.trace_table[x]\nctx.exp_table\nlog = c.log_table\n"
    assert table_reads(source) == [(3, "log_table")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "field.py"],
                         ids=lambda p: p.name)
def test_only_field_reads_the_log_and_trace_tables(path):
    assert table_reads(path.read_text()) == []


def cache_touches(source):
    """(line, top-level function or None) of every attribute `_cache` and
    every string "_cache" (as `getattr` would name it)."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        found += [(node.lineno, owner) for node in ast.walk(top)
                  if getattr(node, "attr", getattr(node, "value", None))
                  == "_cache"]
    return sorted(found)


def test_cache_guard_flags_every_touch():
    # The field declaration names `_cache` but touches no context's cache.
    source = ("class Ctx:\n"
              "    _cache: dict = {}\n"
              "def _cached(ctx, key, build):\n"
              "    return ctx._cache.setdefault(key, build())\n"
              "def power_table(ctx, e):\n"
              "    if ('pow', e) not in ctx._cache:\n"
              "        getattr(ctx, '_cache')[('pow', e)] = e\n"
              "ctx._cache.clear()\n")
    assert cache_touches(source) == [(4, "_cached"), (6, "power_table"),
                                     (7, "power_table"), (8, None)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_cached_touches_a_field_cache(path):
    assert [(line, owner) for line, owner in cache_touches(path.read_text())
            if (path.name, owner) != ("field.py", "_cached")] == []


def asserts(source):
    """Lines of every `assert` statement in a source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_guard_flags_every_assert():
    source = "assert x\nif y:\n    assert y, 'why'\nz = 'assert'\n"
    assert asserts(source) == [1, 3]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_assert_in_the_package(path):
    assert asserts(path.read_text()) == []


# (module, top-level function) allowed to hold a matrix product.
PRODUCT_SWEEPS = {("sequences.py", "correlation_distribution")}


def products(source):
    """(line, top-level function or None) of every matrix product: `@`,
    `@=`, and any call of a `matmul` or `dot` name or attribute."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            product = (isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.MatMult))
            if isinstance(node, ast.Call):
                fn = node.func
                product = getattr(fn, "attr", getattr(fn, "id", None)) in (
                    "matmul", "dot")
            if product:
                found.append((node.lineno, owner))
    return sorted(found)


def test_product_guard_flags_every_product():
    source = ("@dataclass\n"
              "class A: pass\n"
              "def f(a, b):\n"
              "    def g(): return a @ b\n"
              "    a @= b\n"
              "    return np.matmul(a, b), a.dot(b), dot(a, b), a.dot\n"
              "c = x @ y\n")
    assert products(source) == [(4, "f"), (5, "f"), (6, "f"), (6, "f"),
                                (6, "f"), (7, None)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_blas_sweeps_hold_a_matrix_product(path):
    assert [(line, owner) for line, owner in products(path.read_text())
            if (path.name, owner) not in PRODUCT_SWEEPS] == []


FLOAT_DTYPES = ("float16", "float32", "float64")


def float_dtypes(source):
    """(line, name) of every float16, float32 or float64 name or attribute."""
    return sorted((node.lineno, name) for node in ast.walk(ast.parse(source))
                  if (name := getattr(node, "id", getattr(node, "attr", None)))
                  in FLOAT_DTYPES)


def test_float_guard_flags_every_float_dtype():
    source = ("import numpy as np\n"
              "x = np.float32(1)\n"
              "y = float64\n"
              "z = np.zeros(2, dtype=np.float16), 'float32', np.floating\n")
    assert float_dtypes(source) == [(2, "float32"), (3, "float64"),
                                    (4, "float16")]


@pytest.mark.parametrize("path", [p for p in PACKAGE
                                  if p.name != "sequences.py"],
                         ids=lambda p: p.name)
def test_only_the_correlation_sweep_names_a_float_dtype(path):
    assert float_dtypes(path.read_text()) == []


BIT_PACKERS = ("packbits", "bitwise_count")


def bit_packers(source):
    """(line, name) of every packbits or bitwise_count name or attribute."""
    return sorted((node.lineno, name) for node in ast.walk(ast.parse(source))
                  if (name := getattr(node, "id", getattr(node, "attr", None)))
                  in BIT_PACKERS)


def test_packer_guard_flags_every_packer():
    source = ("import numpy as np\n"
              "w = np.bitwise_count(np.packbits(bits, axis=-1))\n"
              "pack = packbits\n"
              "x = np.unpackbits(rows), 'packbits', np.bitwise_xor(a, b)\n")
    assert bit_packers(source) == [(2, "bitwise_count"), (2, "packbits"),
                                   (3, "packbits")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name not in
                                  ("sequences.py", "distribution.py")],
                         ids=lambda p: p.name)
def test_only_the_family_and_the_reports_pack_bits(path):
    # The correlation sweep packs sequence rows and the reports pack
    # codewords; every per-pair sweep counts unpacked trace rows.
    assert bit_packers(path.read_text()) == []


# kernel -> the (module, top-level function)s allowed to call it: the
# Walsh sweep, which only S (and so the c2 weights) and the gamma-sweep
# read, and the Walsh kernel and the gamma-axis proof, which only that
# sweep reads; the T table, which only T and Artin-Schreier read, a block
# of the orbit rule at a time; the orbit rule, which the four per-pair
# sweeps (T, the Walsh sweep, the kernel sizes and Artin-Schreier) read,
# and the blocks, which only the orbit rule cuts; the orbit lemma, which
# the orbit rule, the gamma axis and cyclicity read; the one row builder,
# which only the trace rows and the value rows call; the trace rows,
# which only T, the T table, the Walsh sweep, Artin-Schreier and the
# codewords build; the value rows, which only the point counts and the
# phi rows build; the point counts; and the thread pool, which only the
# correlation sweep sums its work over.
KERNEL_CALLERS = {
    "_s_counts": {("expsum.py", "s_spectrum"),
                  ("expsum.py", "gamma_sweep")},
    "_walsh": {("expsum.py", "_s_counts")},
    "_gamma_axis": {("expsum.py", "_s_counts")},
    "_pair_orbits": {("expsum.py", "t_spectrum"),
                     ("expsum.py", "_s_counts"),
                     ("expsum.py", "artin_schreier_sweep"),
                     ("linearized.py", "kernel_dims")},
    "_blocks": {("expsum.py", "_pair_orbits")},
    "_orbit_lemma": {("expsum.py", "_pair_orbits"),
                     ("expsum.py", "_gamma_axis"),
                     ("codes.py", "check_cyclicity")},
    "_rows": {("expsum.py", "_trace_rows"),
              ("expsum.py", "_monomial_rows")},
    "_monomial_rows": {("expsum.py", "artin_schreier_points"),
                       ("linearized.py", "_phi_rows")},
    "_t_table": {("expsum.py", "t_spectrum"),
                 ("expsum.py", "artin_schreier_sweep")},
    "_trace_rows": {("expsum.py", "t_spectrum"),
                    ("expsum.py", "_t_table"),
                    ("expsum.py", "_s_counts"),
                    ("expsum.py", "artin_schreier_sweep"),
                    ("codes.py", "_word_rows")},
    "artin_schreier_points": {("expsum.py", "artin_schreier_sweep")},
    "_summed": {("sequences.py", "correlation_distribution")},
    "_thread_count": {("sequences.py", "correlation_distribution"),
                      ("distribution.py", "_summed")},
    "ThreadPoolExecutor": {("distribution.py", "_summed")},
}


def kernel_calls(source):
    """(line, kernel, top-level function or None) of every call of a kernel
    of KERNEL_CALLERS, by name or attribute."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                fn = node.func
                name = getattr(fn, "attr", getattr(fn, "id", None))
                if name in KERNEL_CALLERS:
                    found.append((node.lineno, name, owner))
    return sorted(found)


def test_kernel_guard_flags_every_kernel_call():
    source = ("def _walsh_sweep(rows):\n"
              "    return _walsh(rows), expsum._gamma_axis(ctx)\n"
              "def s_spectrum(rows):\n"
              "    f = _walsh\n"
              "    return _blocks(q, rows), expsum._walsh(rows)\n"
              "_gamma_axis(ctx)\n"
              "def _check_artin_schreier(run):\n"
              "    rows = _trace_rows(ctx, params, alphas, [], [])\n"
              "    t = expsum._t_table(ctx, params, rows, betas)\n"
              "    return artin_schreier_points(ctx, params, 1, betas)\n"
              "def gamma_sweep(ctx, params, dims):\n"
              "    return _summed(work, items, _thread_count(2, 4))\n")
    assert kernel_calls(source) == [
        (2, "_gamma_axis", "_walsh_sweep"), (2, "_walsh", "_walsh_sweep"),
        (5, "_blocks", "s_spectrum"), (5, "_walsh", "s_spectrum"),
        (6, "_gamma_axis", None),
        (8, "_trace_rows", "_check_artin_schreier"),
        (9, "_t_table", "_check_artin_schreier"),
        (10, "artin_schreier_points", "_check_artin_schreier"),
        (12, "_summed", "gamma_sweep"), (12, "_thread_count", "gamma_sweep")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_two_sweeps_call_the_kernels(path):
    assert [(line, name, owner) for line, name, owner
            in kernel_calls(path.read_text())
            if (path.name, owner) not in KERNEL_CALLERS[name]] == []


def e_quad_gcds(source):
    """(line, top-level function or None) of every call of `gcd`, by name or
    attribute, with `e_quad` in its arguments."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            fn = getattr(node, "func", None)
            if getattr(fn, "attr", getattr(fn, "id", None)) == "gcd" and any(
                    getattr(part, "attr", getattr(part, "id", None))
                    == "e_quad" for arg in node.args
                    for part in ast.walk(arg)):
                found.append((node.lineno, owner))
    return sorted(found)


def test_e_quad_gcd_guard_flags_every_call():
    source = ("def orbits(params, order):\n"
              "    return gcd(params.e_quad, order), math.gcd(3 * e_quad, 7)\n"
              "def roots(h, l):\n"
              "    return gcd(h, l)\n"
              "g = gcd(order, (1 << m) * params.e_quad)\n")
    assert e_quad_gcds(source) == [(2, "orbits"), (2, "orbits"), (5, None)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_orbit_rule_takes_a_gcd_of_e_quad(path):
    # The beta orbits of T's pairs are counted in one place.
    assert [(line, owner) for line, owner in e_quad_gcds(path.read_text())
            if (path.name, owner) != ("expsum.py", "_pair_orbits")] == []


# The O(q^2) full-table proofs of the x -> pi x law, which the orbit lemma
# replaced; they live on as oracles in tests/reference.py.
FULL_TABLE_PROOFS = {"_row_closure", "_orbit_closure", "row_closure",
                     "orbit_closure"}


def full_table_proofs(source):
    """(line, name) of every function or class defined, at any depth, under
    a name of FULL_TABLE_PROOFS."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((node.lineno, node.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, kinds)
                  and node.name in FULL_TABLE_PROOFS)


def test_full_table_guard_flags_every_definition():
    source = ("def _row_closure(build, coeffs, images, perm, name):\n"
              "    pass\n"
              "def sweep(ctx):\n"
              "    def _orbit_closure():\n"
              "        pass\n"
              "    return _row_closure, orbit_closure(ctx)\n")
    assert full_table_proofs(source) == [(1, "_row_closure"),
                                         (4, "_orbit_closure")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_full_table_orbit_proof_in_the_package(path):
    assert full_table_proofs(path.read_text()) == []


STATUSES = ("MATCH", "MISMATCH", "FLAGGED", "SKIPPED", "ERROR")
STATUS_READERS = {("cli.py", "_Run._record"),
                  ("cli.py", "VerificationReport.exit_code")}


def status_reads(source):
    """(line, owner) of every read of a status name, as a name or an
    attribute; the owner is the top-level function, Class.member for a
    member of a top-level class, or None."""
    found = []
    for top in ast.parse(source).body:
        for part in top.body if isinstance(top, ast.ClassDef) else [top]:
            owner = getattr(part, "name", None)
            if part is not top:
                owner = f"{top.name}.{owner}"
            found += [(node.lineno, owner) for node in ast.walk(part)
                      if (isinstance(node, ast.Name)
                          and isinstance(node.ctx, ast.Load)
                          and node.id in STATUSES)
                      or getattr(node, "attr", None) in STATUSES]
    return sorted(found)


def test_status_guard_flags_every_read():
    # Binding a status name reads none.
    source = ("MATCH, ERROR = 'match', 'error'\n"
              "class Report:\n"
              "    def exit_code(self):\n"
              "        return ERROR\n"
              "def _compare(a, b):\n"
              "    return cli.MISMATCH if a != b else MATCH\n"
              "SKIPPED\n")
    assert status_reads(source) == [(4, "Report.exit_code"),
                                    (6, "_compare"), (6, "_compare"),
                                    (7, None)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_record_and_the_exit_code_read_a_status(path):
    assert [(line, owner) for line, owner in status_reads(path.read_text())
            if (path.name, owner) not in STATUS_READERS] == []


# Methods of a mapping that change it, and the os functions that change the
# environment without it.
ENVIRON_WRITERS = {"setdefault", "update", "pop", "popitem", "clear",
                   "__setitem__", "__delitem__", "__ior__"}
ENV_FUNCTIONS = {"putenv", "unsetenv"}


def _is_environ(node):
    return getattr(node, "attr", getattr(node, "id", None)) == "environ"


def _writes_environ(node):
    """Whether node stores to or deletes `environ` (a name or an attribute)
    or an item of it, which an augmented assignment does too, or calls one
    of its mutating methods, `putenv` or `unsetenv`."""
    if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
        return _is_environ(node.value if isinstance(node, ast.Subscript)
                           else node)
    fn = getattr(node, "func", None)
    if getattr(fn, "attr", None) in ENVIRON_WRITERS:
        return _is_environ(fn.value)
    return getattr(fn, "attr", getattr(fn, "id", None)) in ENV_FUNCTIONS


def environ_writes(source):
    """(line, top-level function or None) of every write to the process
    environment. Reading it, as `os.environ.get` or `dict(os.environ)`,
    writes nothing."""
    return sorted((node.lineno, getattr(top, "name", None))
                  for top in ast.parse(source).body
                  for node in ast.walk(top) if _writes_environ(node))


def test_environ_guard_flags_every_write():
    source = ("import os\n"
              "from os import environ, putenv\n"
              "os.environ.setdefault('A', '1')\n"
              "def f(x):\n"
              "    os.environ['B'] = '2'\n"
              "    del os.environ['B']\n"
              "    environ.update(C='3'); environ.pop('C')\n"
              "    os.putenv('D', '4'), os.unsetenv('D'), putenv('E', '5')\n"
              "    os.environ |= {'F': '6'}\n"
              "    return os.environ.get('A'), os.environ['A'], x.pop()\n"
              "os.environ = dict(os.environ, G='7')\n")
    assert environ_writes(source) == [(3, None), (5, "f"), (6, "f"),
                                      (7, "f"), (7, "f"), (8, "f"),
                                      (8, "f"), (8, "f"), (9, "f"),
                                      (11, None)]


INIT = ROOT / "src" / "kasamilab" / "__init__.py"
BLAS_SPIN = "os.environ.setdefault('OPENBLAS_THREAD_TIMEOUT', '18')"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_blas_spin_bound_writes_the_environment(path):
    tree = ast.parse(path.read_text())
    bound = [node.lineno for node in tree.body
             if path == INIT and ast.unparse(node) == BLAS_SPIN]
    assert environ_writes(path.read_text()) == [(line, None)
                                                 for line in bound]


def test_the_blas_spin_is_bounded_before_numpy_loads():
    # OpenBLAS reads its thread timeout once, as numpy loads it, and the
    # first import of a package module loads numpy: the bound precedes
    # every import but that of os.
    tree = ast.parse(INIT.read_text())
    [bound] = [node.lineno for node in tree.body
               if ast.unparse(node) == BLAS_SPIN]
    imports = [node.lineno for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and ast.unparse(node) != "import os"]
    assert bound < min(imports)


def test_every_registered_check_is_a_check():
    assert all(type(check) is cli.Check for check in cli._CHECKS)
