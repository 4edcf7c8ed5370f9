"""Declarative campaign specs: template x axes x seeds -> scenario cells.

A campaign is *what every future study runs through*: a scenario template
plus named parameter axes, expanded into a (possibly huge) set of
:class:`~repro.experiments.common.ScenarioConfig` cells with **stable cell
keys** -- two processes (or two hosts) expanding the same spec agree
byte-for-byte on every cell's identity, which is what lets the
work-stealing executor (:mod:`.exec`) split one campaign across N workers
with zero coordination beyond a shared directory.

Spec shape (a plain mapping; TOML/YAML/JSON files parse to it)::

    name = "table2-grid"

    [template]                  # ScenarioConfig fields -- unknown fields
    workload = "greedy"         # fail with a did-you-mean hint
    n_frames = 2000
    tcp_cross_bytes = 500000000

    [axes]                      # cartesian grid: every combination
    transport = ["tcp", "iq"]
    cbr_bps = [0.0, 8e6]

    [zip]                       # zip-paired axes: advance together
    rtt_s = [0.03, 0.1]
    queue_pkts = [64, 256]

    [[cases]]                   # explicit extra cells (crossed with seeds)
    transport = "rudp"
    cbr_bps = 16e6

    [seeds]
    count = 3                   # or: list = [1, 5, 9]

Cell count = ``len(grid product) * len(zip rows) * len(seeds) +
len(cases) * len(seeds)``.  String values are the CLI's ``--set`` dialect,
:func:`repro.experiments.common.parse_field`: Python literals when they
parse, ``adaptation`` / ``faults`` registry names, ``fec`` spec strings.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Iterable, Mapping

from ..experiments.common import ScenarioConfig, did_you_mean, parse_field
from ..middleware.adaptation import ADAPTATIONS
from ..runner.hashing import config_key, field_text

__all__ = ["Campaign", "CampaignCell", "load_campaign"]

#: Recognised top-level spec keys (anything else is a typo).
_SPEC_KEYS = ("name", "template", "axes", "zip", "cases", "seeds", "metrics")


def _coerce_fields(fields: Mapping[str, Any]) -> dict[str, Any]:
    return {name: parse_field(name, value) for name, value in fields.items()}


class CampaignCell:
    """One expanded cell: a concrete scenario plus its campaign identity.

    ``key`` is the config's :func:`~repro.runner.hashing.config_key` --
    every field, callables by dotted name, no code salt: a campaign
    directory is tied to its spec, not to a source snapshot.  It names the
    cell's result in ``cells/`` and in the results cache alike.  A config
    that cannot be stably fingerprinted (lambda adaptation factory) is
    refused: such a cell could never be claimed consistently by two
    workers.
    """

    __slots__ = ("key", "label", "assignment", "seed", "config")

    def __init__(self, *, label: str, assignment: dict[str, Any],
                 seed: int, config: ScenarioConfig):
        key = config_key(config)
        if key is None:
            raise ValueError(
                "campaign cells must be stably hashable; use a module-level "
                "adaptation factory (e.g. repro.middleware.adaptation."
                "resolution_default) instead of a lambda or local closure")
        self.key = key
        self.label = label
        self.assignment = assignment
        self.seed = seed
        self.config = config

    def __repr__(self) -> str:
        return f"CampaignCell({self.label!r}, key={self.key!r})"


def _unique(cells: list[CampaignCell], empty: str
            ) -> tuple[CampaignCell, ...]:
    """``cells`` as a tuple; two cells with one key (the same
    configuration) or no cell at all (``empty`` says why) is an error."""
    seen: dict[str, str] = {}
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate campaign cell: {cell.label!r} and "
                             f"{seen[cell.key]!r} hold the same "
                             f"configuration")
        seen[cell.key] = cell.label
    if not cells:
        raise ValueError(empty)
    return tuple(cells)


def _cell_label(assignment: Mapping[str, Any], seed: int) -> str:
    parts = [f"{name}={field_text(value)}"
             for name, value in assignment.items()]
    parts.append(f"seed={seed}")
    return ",".join(parts)


class Campaign:
    """A validated campaign spec plus its (memoised) cell expansion.

    Build one programmatically::

        camp = Campaign(Scenario(workload="greedy", n_frames=2000),
                        name="grid",
                        axes={"transport": ["tcp", "iq"],
                              "cbr_bps": [0.0, 8e6]},
                        seeds=3)

    or declaratively via :func:`load_campaign` (TOML/YAML/JSON file or a
    plain mapping).  ``len(camp)`` is the cell count; ``camp.cells()`` the
    expansion; :func:`~repro.campaign.run_campaign` executes it.
    """

    def __init__(self, template: ScenarioConfig | None = None, *,
                 name: str = "campaign",
                 axes: Mapping[str, Iterable[Any]] | None = None,
                 zip_axes: Mapping[str, Iterable[Any]] | None = None,
                 cases: Iterable[Mapping[str, Any]] | None = None,
                 seeds: int | Iterable[int] | None = None,
                 metrics: Iterable[str] | None = None):
        if template is None:
            template = ScenarioConfig()
        elif not isinstance(template, ScenarioConfig):
            raise TypeError(f"template must be a Scenario, "
                            f"got {type(template).__name__}")
        self.name = str(name)
        self.template = template
        self.axes = {str(k): list(v) for k, v in (axes or {}).items()}
        self.zip_axes = {str(k): list(v)
                         for k, v in (zip_axes or {}).items()}
        self.cases = [dict(c) for c in (cases or [])]
        self.metrics = tuple(metrics) if metrics is not None else None
        self._validate_axes()
        self.seeds = self._resolve_seeds(seeds)
        self._cells: tuple[CampaignCell, ...] | None = None

    # -- validation --------------------------------------------------------
    def _resolve_seeds(self, seeds) -> tuple[int, ...]:
        base = int(self.template.seed)
        if seeds is None:
            return (base,)
        if isinstance(seeds, bool):
            raise ValueError(f"seeds must be a count or a list, got {seeds!r}")
        if isinstance(seeds, int):
            if seeds < 1:
                raise ValueError(f"seeds count must be >= 1, got {seeds}")
            return tuple(base + i for i in range(seeds))
        out = tuple(int(s) for s in seeds)
        if not out:
            raise ValueError("seeds list cannot be empty")
        if len(set(out)) != len(out):
            raise ValueError(f"duplicate seeds: {sorted(out)}")
        return out

    def _validate_axes(self) -> None:
        overlap = sorted(set(self.axes) & set(self.zip_axes))
        if overlap:
            raise ValueError(f"field(s) {', '.join(overlap)} appear in both "
                             f"'axes' and 'zip'; pick one")
        for group, axes in (("axes", self.axes), ("zip", self.zip_axes)):
            for field, values in axes.items():
                if not values:
                    raise ValueError(f"{group} field {field!r} has no values")
                if field == "seed":
                    raise ValueError("'seed' is not an axis; use the "
                                     "'seeds' section for replicates")
                # Unknown-field rejection is ScenarioConfig's, so there is
                # exactly one error dialect (did-you-mean).
                self.template.replace(**{field: values[0]})
        if self.zip_axes:
            lengths = {field: len(v) for field, v in self.zip_axes.items()}
            if len(set(lengths.values())) > 1:
                detail = ", ".join(f"{k}: {n}" for k, n in lengths.items())
                raise ValueError(
                    f"zip-paired axes must have equal lengths ({detail})")
        for i, case in enumerate(self.cases):
            if not isinstance(case, Mapping) or not case:
                raise ValueError(f"cases[{i}] must be a non-empty mapping "
                                 f"of ScenarioConfig overrides")
            if "seed" in case:
                raise ValueError(f"cases[{i}] sets 'seed'; seeds come from "
                                 f"the 'seeds' section")
            self.template.replace(**case)

    # -- construction from a mapping / file --------------------------------
    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "Campaign":
        """Build (and fully validate) a campaign from a plain mapping --
        the parsed form of a TOML/YAML/JSON spec file."""
        if not isinstance(mapping, Mapping):
            raise TypeError(f"campaign spec must be a mapping, "
                            f"got {type(mapping).__name__}")
        unknown = sorted(set(mapping) - set(_SPEC_KEYS))
        if unknown:
            hints = ", ".join(did_you_mean(k, _SPEC_KEYS) for k in unknown)
            raise ValueError(f"unknown campaign spec key(s): {hints}; "
                             f"valid keys: {', '.join(_SPEC_KEYS)}")
        template_fields = _coerce_fields(mapping.get("template") or {})
        template = ScenarioConfig(**template_fields)
        axes = {field: [parse_field(field, v) for v in values]
                for field, values in (mapping.get("axes") or {}).items()}
        zip_axes = {field: [parse_field(field, v) for v in values]
                    for field, values in (mapping.get("zip") or {}).items()}
        cases = [_coerce_fields(case)
                 for case in (mapping.get("cases") or [])]
        seeds = mapping.get("seeds")
        if isinstance(seeds, Mapping):
            extra = sorted(set(seeds) - {"count", "list"})
            if extra:
                # Classic TOML slip: top-level keys written after the
                # [seeds] header land inside the seeds table.
                raise ValueError(
                    f"unexpected key(s) in the 'seeds' table: "
                    f"{', '.join(map(repr, extra))} (it takes exactly one "
                    f"of 'count' or 'list'; in TOML, top-level keys like "
                    f"'metrics' must appear before the first [table] "
                    f"header)")
            if "count" in seeds and "list" in seeds:
                raise ValueError("the 'seeds' table takes exactly one of "
                                 "'count' or 'list'")
            seeds = seeds.get("count", seeds.get("list"))
        camp = cls(template, name=mapping.get("name", "campaign"),
                   axes=axes, zip_axes=zip_axes, cases=cases, seeds=seeds,
                   metrics=mapping.get("metrics"))
        camp._raw = _raw_mapping(mapping)
        return camp

    @classmethod
    def from_scenarios(cls, rows, *, name: str = "batch") -> "Campaign":
        """Wrap an already-expanded collection of scenarios as a campaign.

        ``rows`` is a mapping of ``{label: Scenario}`` (or a plain
        iterable, labelled by index) -- the shape every experiment's
        ``configs()`` builds.  Labels become cell labels verbatim, so a bench
        routed through a campaign directory keys its results exactly as
        before.  No template/axes structure exists, so the manifest stores
        no spec and per-axis aggregation is empty.
        """
        if not isinstance(rows, Mapping):
            rows = {str(i): sc for i, sc in enumerate(rows)}
        cells: list[CampaignCell] = []
        for label, cfg in rows.items():
            if not isinstance(cfg, ScenarioConfig):
                raise TypeError(f"rows[{label!r}] must be a Scenario, "
                                f"got {type(cfg).__name__}")
            cells.append(CampaignCell(label=str(label), assignment={},
                                      seed=cfg.seed, config=cfg))
        camp = cls(name=name)
        camp._cells = _unique(cells, "cannot build a campaign from zero "
                                     "scenarios")
        camp._cells_only = True
        return camp

    _raw: dict | None = None
    _cells_only: bool = False

    def to_mapping(self) -> dict | None:
        """JSON-serialisable spec mapping for the campaign manifest, or
        None when the campaign was built programmatically from values that
        do not serialise (then only Python-side resume works)."""
        if self._raw is not None:
            return self._raw
        if self._cells_only:
            return None
        template = self.template.non_defaults()
        reverse_adapt = {fn: name for name, fn in ADAPTATIONS.items()
                         if fn is not None}
        if template.get("adaptation") in reverse_adapt:
            template["adaptation"] = reverse_adapt[template["adaptation"]]
        mapping = {"name": self.name, "template": template,
                   "axes": self.axes, "zip": self.zip_axes,
                   "cases": self.cases,
                   "seeds": {"list": list(self.seeds)}}
        if self.metrics is not None:
            mapping["metrics"] = list(self.metrics)
        try:
            json.dumps(mapping)
        except (TypeError, ValueError):
            return None
        return mapping

    def replace_template(self, **overrides: Any) -> "Campaign":
        """Derive a campaign with template overrides -- values, or text
        in the :func:`parse_field` dialect (the CLI ``--set`` path, which
        passes what was typed so that the stored spec stays JSON); axis
        values still win over template values per cell."""
        camp = Campaign(self.template.replace(**_coerce_fields(overrides)),
                        name=self.name, axes=self.axes,
                        zip_axes=self.zip_axes, cases=self.cases,
                        seeds=self.seeds, metrics=self.metrics)
        if self._raw is not None:
            raw = dict(self._raw)
            raw["template"] = dict(raw.get("template") or {})
            raw["template"].update(overrides)
            try:
                json.dumps(raw)
            except (TypeError, ValueError):
                raw = None
            camp._raw = raw
        return camp

    # -- expansion ---------------------------------------------------------
    def _assignments(self):
        axis_names = list(self.axes)
        grid = itertools.product(*(self.axes[a] for a in axis_names)) \
            if axis_names else [()]
        zip_rows: list[dict[str, Any]] = [{}]
        if self.zip_axes:
            names = list(self.zip_axes)
            zip_rows = [dict(zip(names, row))
                        for row in zip(*(self.zip_axes[n] for n in names))]
        for combo in grid:
            for zrow in zip_rows:
                assignment = dict(zip(axis_names, combo))
                assignment.update(zrow)
                yield assignment
        for case in self.cases:
            yield dict(case)

    def cells(self) -> tuple[CampaignCell, ...]:
        """Expand (once) to the full cell tuple, in spec order: grid
        (leftmost axis slowest) x zip row x seed, then explicit cases x
        seed.  Every cell validates as a ScenarioConfig; duplicate cells
        (identical resulting configs) are an error."""
        if self._cells is None:
            self._cells = _unique(
                [CampaignCell(label=_cell_label(assignment, seed),
                              assignment=assignment, seed=seed,
                              config=self.template.replace(**assignment,
                                                           seed=seed))
                 for assignment in self._assignments()
                 for seed in self.seeds],
                "campaign expands to zero cells")
        return self._cells

    def __len__(self) -> int:
        return len(self.cells())

    def describe(self) -> str:
        """One-line shape summary for logs and the status command."""
        parts = []
        if self.axes:
            parts.append(" x ".join(f"{a}[{len(v)}]"
                                    for a, v in self.axes.items()))
        if self.zip_axes:
            names = list(self.zip_axes)
            parts.append(f"zip({','.join(names)})"
                         f"[{len(self.zip_axes[names[0]])}]")
        if self.cases:
            parts.append(f"cases[{len(self.cases)}]")
        parts.append(f"seeds[{len(self.seeds)}]")
        return (f"{self.name}: {' x '.join(parts) if parts else 'template'}"
                f" = {len(self)} cells")

    def __repr__(self) -> str:
        return f"<Campaign {self.describe()}>"


def _raw_mapping(mapping: Mapping[str, Any]) -> dict | None:
    """Deep-copy a spec mapping for the manifest, or None when the caller
    handed us values JSON cannot carry."""
    try:
        return json.loads(json.dumps(dict(mapping)))
    except (TypeError, ValueError):
        return None


def load_campaign(source) -> Campaign:
    """Load a campaign from a mapping or a spec file.

    ``source`` is a plain mapping (returned as a validated
    :class:`Campaign`), or a path to a ``.toml``, ``.yaml``/``.yml`` or
    ``.json`` file.  YAML requires PyYAML; the other formats use the
    standard library.
    """
    if isinstance(source, Campaign):
        return source
    if isinstance(source, Mapping):
        return Campaign.from_mapping(source)
    path = str(source)
    lowered = path.lower()
    if lowered.endswith(".toml"):
        import tomllib
        with open(path, "rb") as fh:
            mapping = tomllib.load(fh)
    elif lowered.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise ValueError(
                f"cannot load {path}: YAML specs need PyYAML (use TOML or "
                f"JSON instead)") from exc
        with open(path) as fh:
            mapping = yaml.safe_load(fh)
    elif lowered.endswith(".json"):
        with open(path) as fh:
            mapping = json.load(fh)
    else:
        raise ValueError(f"unrecognised campaign spec format {path!r} "
                         f"(expected .toml, .yaml/.yml or .json)")
    if not isinstance(mapping, Mapping):
        raise ValueError(f"campaign spec {path!r} must parse to a mapping, "
                         f"got {type(mapping).__name__}")
    return Campaign.from_mapping(mapping)
