"""The three benchmark workloads, each a fixed unit of work run through the
public functions of ``ksets`` and checked against known results.

A workload has a ``setup`` (what a user pays once: imports plus building
the 60-75, or loading the corpus), a ``run`` that does one timed pass, and
a ``verify`` that checks the pass's outputs afterwards, untimed and
untraced.  ``verify`` returns them as a JSON-able payload, whose digest
lets two commits be compared byte for byte.  Every correctness check is
recorded on a ``Checks`` tally; ``run`` records only those that cost
nothing beyond the work itself, and leaves checks that call back into the
program (parsing the survey archive, parsing canonical forms back) to
``verify``, so that they count towards no metric.

The sizes are smaller than the full runs the paper reports, so that one
pass takes ten to twenty seconds on one core and the benchmark's many
runs fit their time budget; ``README.md`` beside this file lists the cuts.
Every function is reached as an attribute of the ``ksets`` package so
that the trace shims, which patch those attributes, see the calls.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import ksets
from ksets import corpus as ks_corpus


class Checks:
    """Tally of correctness checks: attempted, failed, and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Context:
    """What a pass needs besides its set-up: the seed, the survey's worker
    count, and a directory inside the checkout for scratch files."""

    seed: int
    workers: int
    scratch: Path


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Exhaustive:
    """Acceptance criterion 5, cut to fit: unconnected counts over every
    subset of the 60-75 that keeps 1..3 edges, then the exact isomorphism
    classes from 75 edges down to 72, all KS and none critical.

    Seed-free: the seed changes nothing here.
    """

    name = "exhaustive"
    # kept edges -> subsets whose edges do not form one connected piece
    unconnected: dict = field(default_factory=lambda: {1: 0, 2: 2175, 3: 59725})
    # classes at 75, 74, ... edges
    classes: tuple = (1, 1, 4, 19)

    def setup(self):
        return ksets.build_600cell().hypergraph

    def run(self, h75, ctx: Context, checks: Checks) -> dict:
        n = h75.num_edges
        unconnected = {}
        for kept, expected in sorted(self.unconnected.items()):
            plan = ksets.StripPlan(k=n - kept, renormalize_output=False)
            total = bad = 0
            for child in ksets.enumerate_subsets(h75, plan):
                total += 1
                bad += not ksets.is_connected(child)
            checks.check(f"{total} subsets keep {kept} edges", total == comb(n, kept))
            checks.check(
                f"{bad} unconnected subsets keep {kept} edges, want {expected}",
                bad == expected,
            )
            unconnected[str(kept)] = bad

        # stagewise stripping from class representatives is exhaustive
        # because edge removal commutes with isomorphism
        reps = [h75]
        every_rep = [h75]
        counts = [1]
        plan = ksets.StripPlan(k=1)
        for _ in range(len(self.classes) - 1):
            seen: set[str] = set()
            nxt = []
            for child in ksets.strip_one_each(reps, plan):
                if not ksets.is_connected(child):
                    continue
                cert = ksets.canonical_form(child).text
                if cert not in seen:
                    seen.add(cert)
                    nxt.append(child)
            reps = nxt
            every_rep.extend(reps)
            counts.append(len(reps))
        checks.check(
            f"class counts {counts}, want {list(self.classes)}",
            counts == list(self.classes),
        )
        ks_count = critical_count = 0
        for h in every_rep:
            ks_count += checks.check(f"{h.signature} class is KS", ksets.is_ks(h))
            critical = ksets.is_critical(h)
            critical_count += critical
            checks.check(f"{h.signature} class is not critical", not critical)
        return {
            "unconnected": unconnected,
            "classes": counts,
            "ks": ks_count,
            "criticals": critical_count,
        }

    def verify(self, payload: dict, checks: Checks) -> dict:
        return payload


@dataclass(frozen=True)
class Survey:
    """The paper's statistical survey, cut to fit.

    Phase one is ``run_survey`` from the 60-75 down to ``min_edges`` with
    an auto-calibrated increment against ``target``, uniform thinning and
    ``ctx.workers`` processes, into a fresh directory.  At target 120 the
    stages from 71 edges down keep about 75 classes, above the 64 at which
    ``run_stage`` hands its KS and criticality checks to a process pool.  Phase two draws ``draws`` seeded random
    subsets at each edge count in ``sample_edges`` and turns the KS,
    distinct-class and critical counts into a coupon-collector class
    estimate and Bernoulli bounds.
    """

    name = "survey"
    target: int = 120
    min_edges: int = 68
    sample_edges: tuple = (71, 40)
    draws: int = 200

    def setup(self):
        return ksets.build_600cell().hypergraph

    def run(self, h75, ctx: Context, checks: Checks) -> dict:
        ctx.scratch.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="survey-", dir=ctx.scratch))
        cfg = ksets.SurveyConfig(
            start=h75,
            target=self.target,
            min_edges=self.min_edges,
            increment=None,
            selection_mode="uniform",
            seed=ksets.SamplerSeed(ctx.seed),
            workers=ctx.workers,
            output_dir=out,
        )
        try:
            stages = list(ksets.run_survey(cfg))
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        estimates = {
            str(b): self._sample(h75, b, ctx.seed, checks)
            for b in self.sample_edges
        }
        return {"dir": out, "stages": stages, "estimates": estimates}

    def verify(self, raw: dict, checks: Checks) -> dict:
        try:
            archive = self._check_archive(raw["dir"], raw["stages"], checks)
        finally:
            shutil.rmtree(raw["dir"], ignore_errors=True)
        return {"archive": archive, "estimates": raw["estimates"]}

    def _check_archive(self, out: Path, stages, checks: Checks) -> dict:
        """Check every stage record and archived line; return the archive
        with the wall-clock field dropped, so equal seeds give equal
        payloads."""
        checks.check(f"{len(stages)} stages, want at least one", bool(stages))
        archive = {}
        expected_files = set()
        previous = None
        for r in stages:
            if previous is not None:
                checks.check(
                    f"stage {r.edges} does not follow stage {previous.edges}",
                    r.edges == previous.edges - 1 and r.inputs == previous.ks,
                )
            previous = r
            stem = f"edges-{r.edges:02d}"
            record = json.loads((out / f"{stem}.json").read_text())
            chain = [
                record["children"],
                record["connected"],
                record["exact_unique"],
                record["non_isomorphic"],
                record["ks"],
            ]
            checks.check(
                f"{stem}: filter chain {chain} not monotone",
                all(a >= b for a, b in zip(chain, chain[1:])),
            )
            del record["seconds"]
            entry = {"record": record}
            wanted = {"mmp": r.ks, "criticals.mmp": r.criticals_odd + r.criticals_even}
            for suffix, count in wanted.items():
                path = out / f"{stem}.{suffix}"
                lines = path.read_text().splitlines()
                checks.check(
                    f"{path.name}: {len(lines)} lines, want {count}",
                    len(lines) == count,
                )
                for ln, line in enumerate(lines, start=1):
                    h = ksets.parse_mmp(line, ksets.STRICT)
                    checks.check(
                        f"{path.name}:{ln} invalid or not {r.edges} edges",
                        not ksets.validate_mmp(h) and h.num_edges == r.edges,
                    )
                entry[suffix] = lines
            archive[stem] = entry
            expected_files |= {f"{stem}.json", f"{stem}.mmp", f"{stem}.criticals.mmp"}
        found = {p.name for p in out.iterdir()}
        checks.check(
            f"unexpected survey files {sorted(found - expected_files)}",
            found == expected_files,
        )
        return archive

    def _sample(self, h75, b: int, seed: int, checks: Checks) -> dict:
        n = h75.num_edges
        ks_draws = criticals = connected = 0
        certs: set[str] = set()
        draws = ksets.sample_subsets(
            h75, n - b, self.draws, ksets.SamplerSeed(seed)
        )
        for h in draws:
            if not ksets.is_connected(h):
                continue
            connected += 1
            colorable, witness = ksets.is_colorable(h)
            if colorable:
                checks.check(
                    f"{b}-edge colorable draw: witness verifies",
                    witness.is_valid_for(h),
                )
                continue
            ks_draws += 1
            certs.add(ksets.canonical_form(h).text)
            criticals += ksets.is_critical(h)
        result = {
            "connected": connected,
            "ks": ks_draws,
            "distinct": len(certs),
            "criticals": criticals,
        }
        if ks_draws == 0:
            return result
        est = ksets.coupon_mle(ks_draws, len(certs))
        checks.check(
            f"{b} edges: coupon estimate {est} below {len(certs)} distinct",
            est.unbounded or est.classes >= len(certs),
        )
        ci = ksets.confidence_bounds(
            comb(n, b) * ks_draws / self.draws, ks_draws, criticals
        )
        checks.check(
            f"{b} edges: bounds not ordered lower <= point <= upper",
            ci.lower <= ci.point <= ci.upper,
        )
        result["coupon_classes"] = str(est)
        result["bounds"] = [str(ci.lower), str(ci.point), str(ci.upper)]
        return result


@dataclass(frozen=True)
class Corpus:
    """Classification of the published corpus.

    Every entry gets the cheap pipeline (lenient parse, serialize,
    validate, connectivity, canonical form, KS, criticality, parity);
    entries with at most ``loop_max_edges`` edges also get the maximal
    loop, its edge classification and an SVG drawing, and those among
    them with a published loop size get all loop arrangements at that
    size.  ``verify`` parses every canonical form back.  Seed-free.
    """

    name = "corpus"
    names: tuple | None = None  # None: every entry
    loop_max_edges: int = 36
    loop_sizes: dict = field(default_factory=lambda: dict(ks_corpus.LOOP_SIZES))

    def setup(self):
        return ks_corpus.load_all()

    def run(self, loaded, ctx: Context, checks: Checks) -> dict:
        names = self.names or tuple(ks_corpus.CORPUS_LINES)
        layout = ksets.LayoutConfig()
        entries = {}
        for name in names:
            h = ksets.parse_mmp(ks_corpus.CORPUS_LINES[name], ksets.LENIENT)
            checks.check(f"{name}: signature {h.signature}", h.signature == name)
            line = ksets.serialize_mmp(h)
            checks.check(f"{name}: fails validation", not ksets.validate_mmp(h))
            checks.check(f"{name}: not connected", ksets.is_connected(h))
            cert = ksets.canonical_form(h).text
            checks.check(f"{name}: not KS", ksets.is_ks(h))
            checks.check(f"{name}: not critical", ksets.is_critical(h))
            parity = ksets.has_parity_proof(h)
            checks.check(
                f"{name}: parity {parity} with {h.num_edges} edges",
                parity == (h.num_edges % 2 == 1),
            )
            entry = {"line": line, "canonical": cert, "parity": parity}
            if h.num_edges <= self.loop_max_edges:
                entry.update(self._loops(name, h, layout, checks))
            entries[name] = entry
        checks.check(
            f"{len(loaded)} entries loaded at set-up", len(loaded) == len(
                ks_corpus.CORPUS_LINES
            ),
        )
        return entries

    def verify(self, entries: dict, checks: Checks) -> dict:
        for name, entry in entries.items():
            back = ksets.parse_mmp(entry["canonical"], ksets.STRICT)
            checks.check(
                f"{name}: canonical form parses to {back.signature}",
                back.signature == name,
            )
        return entries

    def _loops(self, name, h, layout, checks: Checks) -> dict:
        size, loop = ksets.biggest_loop(h)
        checks.check(f"{name}: no loop", loop is not None and size == loop.size)
        cls = ksets.classify_edges(h, loop)
        checks.check(
            f"{name}: edge classification does not partition the edges",
            len(cls.polygon) + len(cls.free) + len(cls.span) == h.num_edges,
        )
        svg = ksets.emit_layout(h, loop, layout)
        checks.check(f"{name}: drawing is not SVG", svg.startswith("<svg"))
        out = {
            "loop": size,
            "svg_sha256": hashlib.sha256(svg.encode()).hexdigest(),
        }
        published = self.loop_sizes.get(name)
        if published is not None:
            checks.check(
                f"{name}: biggest loop {size}, published {published}",
                size == published,
            )
            found = ksets.loop_arrangements(h, published)
            checks.check(
                f"{name}: {len(found)} arrangements of size {published}",
                len(found) > 0 and all(lp.size == published for lp in found),
            )
            out["arrangements"] = len(found)
        return out


WORKLOADS = {w.name: w for w in (Exhaustive(), Survey(), Corpus())}
