"""The package's public surface is what the package and the benchmark use.

A public function, class or method of ``src/qweinstein`` that nothing in the
package (outside its own definition and ``__init__.py``) and nothing in
``perfbench/`` refers to is code that only tests call; it belongs in the tests,
unless it is a paper object listed in ``PAPER_OBJECTS``.  Names are matched,
not resolved: a method counts as used wherever an attribute of its name is read.
Likewise, a parameter that its function's body never reads is one no caller needs,
and a parameter with a default that no call in the package or the benchmark sets
is a knob only tests turn, unless ``UNSET_DEFAULTS`` gives the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# paper objects the tests pin although no code path of the package calls them
PAPER_OBJECTS = {
    "qfactorial": "the q-factorial [n]_q!",
    "dq_1d": "the Rubin symmetric q-derivative, on callables at a lattice point",
    "even_odd_split": "the split f = f_e + f_o into even and odd parts",
    "kernel_eval": "the kernel e(-i l1 x1; q^2) j_alpha(l2 x2; q^2) at general arguments",
    "Kernel": "the product kernel at a fixed spectral point",
    "sup_bound": "the kernel bound 4 / (q; q)_inf^2 of criterion 9",
    "norm_growth_sequence": "the preimage-side norm growth b_n of the Paley-Wiener theorem",
}

# defaulted parameters that no call in src/ or perfbench/ sets, and why they stay
UNSET_DEFAULTS = {
    "bandwidth_estimate(f_hat)": "the given-preimage route, the one that works at every q; "
                                 "the README's misaligned-q route_max_rel_dev figures use it",
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_name_is_used_outside_the_tests():
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qweinstein").glob("*.py"))
             if p.name != "__init__.py"]
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    uses: dict = {}   # name -> ids of the Name and Attribute nodes that read it
    for n in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(n, (ast.Name, ast.Attribute)):
            uses.setdefault(n.id if isinstance(n, ast.Name) else n.attr, []).append(id(n))
    defined, unused = set(), []
    for tree in trees:
        for node in _public_definitions(tree):
            defined.add(node.name)
            own = {id(n) for n in ast.walk(node)}
            if (node.name not in PAPER_OBJECTS
                    and all(i in own for i in uses.get(node.name, ()))
                    and not re.search(rf"\b{node.name}\b", bench)):
                unused.append(node.name)
    assert not unused, f"public but used only by tests: {unused}"
    assert set(PAPER_OBJECTS) <= defined, "a paper object named here is gone from src/"


def test_every_parameter_is_read_by_its_body():
    unread, paths = [], sorted((ROOT / "src" / "qweinstein").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if x is not None and x.arg not in ("self", "cls")]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for b in body for n in ast.walk(b)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{name}({p})" for p in params if p not in read]
    assert not unread, f"parameters their function never reads: {unread}"


def _calls_by_name(trees):
    calls: dict = {}   # callee name -> its ast.Call nodes
    for n in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            calls.setdefault(n.func.id if isinstance(n.func, ast.Name) else n.func.attr,
                             []).append(n)
    return calls


def _sets(call: ast.Call, name: str, position) -> bool:
    # a call sets the parameter by keyword, by position or through * / ** unpacking
    return (any(k.arg in (name, None) for k in call.keywords)
            or position is not None and (len(call.args) > position
                                         or any(isinstance(x, ast.Starred) for x in call.args)))


def test_every_defaulted_parameter_is_set_by_a_caller():
    src = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qweinstein").glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert src and bench
    calls = _calls_by_name(src + bench)
    unset = []
    for node in (n for tree in src for n in ast.walk(tree)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = [x.arg for x in (*a.posonlyargs, *a.args)]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
        defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for name in (x for x in defaulted if not x.startswith("_")):
            position = positional.index(name) if name in positional else None
            if not any(_sets(c, name, position) for c in calls.get(node.name, ())):
                unset.append(f"{node.name}({name})")
    assert not set(unset) - set(UNSET_DEFAULTS), f"defaults no caller sets: {unset}"
    assert set(UNSET_DEFAULTS) <= set(unset), "an UNSET_DEFAULTS entry is now set or gone"
