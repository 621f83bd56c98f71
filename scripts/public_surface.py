#!/usr/bin/env python3
"""Public-surface gate: every `pub fn` has a caller outside tests, and
every `pub const` / `pub static` a use outside its crate.

Usage: python3 scripts/public_surface.py [ROOT]   (ROOT defaults to the repo)

Checked: every `pub fn NAME` under ROOT/crates/*/src and ROOT/src, outside
`#[cfg(test)]` items and comments. Its caller must be a `NAME(`, `.NAME`
or `::NAME` token in the production text: those same trees with their
`#[cfg(test)]` items and comments removed, plus ROOT/bench/src and
ROOT/examples (the benchmark's pinned API and the examples count as
production). A definition `fn NAME` is not a caller. A function with no
caller must be on ALLOWED below, with the reason it stays public; an entry
that names no `pub fn`, `pub const` or `pub static` fails the gate too.

Every `pub const NAME` / `pub static NAME` there needs a use in the
production text of another crate (ROOT/src, bench/src and examples each
count as one): a `NAME` token for a free item, `Type::NAME` for an
associated one. One that only its own crate reads is `pub(crate)`, or on
ALLOWED with its reason.

Limit: callers are matched by name, so a method that shares its name with
a called one elsewhere (`run`, `new`, `set`) passes whether or not it is
called. The compiler census covers that case: make every `pub fn`
`pub(crate)` in a scratch copy, then `cargo check --workspace --lib --bins
--examples` (and the bench/ manifest) reports a caller in another crate as
an error and no production caller as a `dead_code` warning (CHANGES.md
records the table).

Exit status: 0 when every function has a caller or an entry, 1 otherwise.
"""

import re
import sys
from pathlib import Path

# Public functions with no production caller, and public consts with no
# use outside their crate, one per line, with why they stay public: the
# oracles the suites compare against (DESIGN §6, §8), the test handles
# that suites in other crates need, and the shape of public trace arrays.
ALLOWED = {
    "reference::run": "the AoS oracle every suite that compares populations names",
    "verify::verify_all": "the AoS verifier streamed_verify holds the streamed fold to",
    "verify::expected_velocity": "the analytic velocity the verification suites pin",
    "verify::triangular_id_sum": "the closed-form id checksum the suites compare against",
    "Decomp2d::owner_of_cell": "the cut-ownership oracle the OwnerTable classifiers are held to",
    "Simulation::with_chunk_size": "suites sweep the engine at several chunk sizes",
    "Simulation::with_simd_backend": "suites pin every vector backend against the scalar one",
    "Simulation::particles": "suites read the engine's population as AoS records",
    "SimdBackend::available": "suites iterate every backend the host runs",
    "Tracer::in_memory": "trace suites read the records back without a file",
    "BinnedStore::particle_at": "streamed_verify and trace_integration read one stored particle",
    "BinnedStore::set": "streamed_verify and trace_integration corrupt one stored particle",
    "RankKernel::with_backend": "rank_kernel_equivalence pins every backend in the rank loop",
    "ParConfig::with_kernel": "storage_digests and streamed_verify run the rank loop on one backend",
    "Decomp2d::columns": "strip_local_apply and the allocation audit build strip decompositions",
    "RankState::new": "the rank suites build one rank's state outside the rank loop",
    "RankState::step": "the rank suites drive one rank step by step",
    "RankState::verify": "the rank suites verify one rank's residents",
    "verify::DEFAULT_TOLERANCE": "verification_sensitivity perturbs particles against the one gate",
    "Distance::ALL": "pic-cluster's proptests iterate every distance class",
    "tracer::PHASE_COUNT": "the length of TraceReport's public per-phase arrays",
    "tracer::COUNTER_COUNT": "the length of TraceReport's public counter arrays",
    "Phase::ALL": "the index order of TraceReport's per-phase arrays, which their docs name",
    "Counter::ALL": "the index order of TraceReport's counter arrays, which their docs name",
}

PUB_ITEM = re.compile(r"\bpub\s+(?:const|static)\s+(?:mut\s+)?([A-Z_][A-Z0-9_]*)\b")

PUB_FN = re.compile(r"\bpub\s+(?:(?:const|unsafe|async)\s+)*fn\s+(\w+)")
RAW_STR = re.compile(r'b?r(#*)"')
CHAR = re.compile(r"'(?:\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'")


def blank(text):
    """`text` with every character but newlines made a space."""
    return re.sub(r"[^\n]", " ", text)


def strip(src):
    """Blank comments and the contents of string and char literals,
    keeping every offset and line number."""
    out, i, n = [], 0, len(src)
    while i < n:
        after_ident = src[i - 1 : i].isalnum() or src[i - 1 : i] == "_"
        if src.startswith("//", i):
            end = src.find("\n", i)
            end = n if end < 0 else end
        elif src.startswith("/*", i):
            depth, end = 1, i + 2
            while end < n and depth:
                pair = src[end : end + 2]
                depth += {"/*": 1, "*/": -1}.get(pair, 0)
                end += 2 if pair in ("/*", "*/") else 1
        elif (m := RAW_STR.match(src, i)) and not after_ident:
            end = src.find('"' + m.group(1), m.end())
            end = n if end < 0 else end + 1 + len(m.group(1))
        elif src[i] == '"' or (src.startswith('b"', i) and not after_ident):
            end = i + (2 if src[i] == "b" else 1)
            while end < n and src[end] != '"':
                end += 2 if src[end] == "\\" else 1
            end += 1
        elif m := CHAR.match(src, i):
            end = m.end()
        else:
            out.append(src[i])
            i += 1
            continue
        out.append(blank(src[i:end]))
        i = end
    return "".join(out)


def block_end(text, brace):
    """Offset just past the `}` that closes the `{` at `brace`."""
    depth = 0
    for j in range(brace, len(text)):
        depth += {"{": 1, "}": -1}.get(text[j], 0)
        if depth == 0:
            return j + 1
    return len(text)


def drop_test_items(text):
    """Blank every item under `#[cfg(test)]`: a module, a fn, a use."""
    while m := re.search(r"#\[cfg\(test\)\]", text):
        j = m.end()
        while j < len(text) and text[j] not in "{;":
            j += 1
        end = block_end(text, j) if text[j : j + 1] == "{" else j + 1
        text = text[: m.start()] + blank(text[m.start() : end]) + text[end:]
    return text


def impl_blocks(text):
    """(start, end, self type) of every `impl` block."""
    blocks = []
    for m in re.finditer(r"\bimpl\b", text):
        brace, semi = text.find("{", m.end()), text.find(";", m.end())
        if brace < 0 or 0 <= semi < brace:
            continue
        head = re.sub(r"^\s*<.*?>(?=\s)", "", text[m.end() : brace], flags=re.S)
        target = re.split(r"\bfor\b", re.split(r"\bwhere\b", head)[0])[-1]
        target = re.sub(r"<.*", "", target, flags=re.S).strip()
        blocks.append((brace, block_end(text, brace), target.split("::")[-1]))
    return blocks


def crate_of(root, path):
    """The crate a source file belongs to: `crates/NAME`, `src`, `bench`
    or `examples`."""
    parts = path.relative_to(root).parts
    return "/".join(parts[:2]) if parts[0] == "crates" else parts[0]


def main(root):
    checked = sorted(p for d in [*root.glob("crates/*/src"), root / "src"] for p in d.rglob("*.rs"))
    extra = sorted(p for d in (root / "bench/src", root / "examples") for p in d.rglob("*.rs"))
    production, by_crate, doors, items = [], {}, [], []
    for path in checked + extra:
        text = drop_test_items(strip(path.read_text()))
        production.append(text)
        by_crate.setdefault(crate_of(root, path), []).append(text)
        if path in extra:
            continue
        blocks, crate = impl_blocks(text), crate_of(root, path)

        def found(m):
            owner = ([name for start, end, name in blocks if start < m.start() < end] or [None])[-1]
            line = text.count("\n", 0, m.start()) + 1
            where = f"{path.relative_to(root)}:{line}"
            return f"{owner or path.stem}::{m.group(1)}", m.group(1), owner, crate, where

        doors += map(found, PUB_FN.finditer(text))
        items += map(found, PUB_ITEM.finditer(text))
    production = "\n".join(production)

    bad = 0
    for qual, name, _, _, where in doors:
        call = rf"(?<![\w.:])(?<!fn ){name}\s*(?:\(|::<)|(?<=\.){name}\b|(?<=::){name}\b"
        if qual not in ALLOWED and not re.search(call, production):
            print(f"public surface: {where}: `pub fn {qual}` has no caller outside tests", file=sys.stderr)
            bad += 1
    for qual, name, owner, crate, where in items:
        use = rf"\b{owner}::{name}\b" if owner else rf"(?<!const )(?<!static )\b{name}\b"
        others = "\n".join(t for c, texts in by_crate.items() if c != crate for t in texts)
        if qual not in ALLOWED and not re.search(use, others):
            print(f"public surface: {where}: `pub {qual}` has no use outside {crate}", file=sys.stderr)
            bad += 1
    for qual in sorted(set(ALLOWED) - {door[0] for door in doors + items}):
        print(f"public surface: allow-list entry `{qual}` names no public item", file=sys.stderr)
        bad += 1
    print(
        f"public surface: {len(doors)} pub fns, {len(items)} pub consts and statics, "
        f"{len(ALLOWED)} on the allow-list, {bad} problem(s)"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent))
