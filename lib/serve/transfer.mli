(** Cross-request mapping transfer: warm-start a search from the
    nearest-neighbor cached mapping of the same shape family.

    Real catalogs (ResNet, Inception) are dominated by layers that differ
    only in their bounds. Their requests have distinct fingerprints — the
    cache rightly misses — but the mapping found for one is an excellent
    initial incumbent (alpha) for the next: the parent-side classify phase
    calls {!find_seed} on every cacheable miss and ships the rescaled
    neighbor to the worker, which passes it to
    {!Sun_core.Optimizer.optimize} as [?seed]. An illegal seed is dropped
    silently by the optimizer, so transfer never makes a request fail; the
    seed-only pruning margin and second refinement are heuristics, so a
    warm result is usually, not always, at least as good as a cold one.

    Neighbor selection: cached documents carry their
    {!Fingerprint.structural} family key, structural bound vector and dim
    names ({!stored_fields}); {!Cache.nearest_many} returns the three
    members with the closest bounds (sum of per-dim [|ln(b/b')|]), and
    the rescaled seed with the lowest EDP wins. Each neighbor's mapping
    is renamed through the positional structural-dim correspondence and
    rescaled to the new bounds: innermost-first, every factor keeps its
    gcd with the dim's remaining budget, so per-dim products match the
    new bounds exactly while no tile or spatial product ever exceeds the
    neighbor's known-legal ones. Residuals of dims that grew start at the
    top temporal level and are then sunk, prime by prime, to the
    innermost level that still validates — leaving them at the top would
    serialize the growth through the outermost boundary and waste the
    neighbor's locality.

    Determinism: with [--jobs 1] (and in any sequential replay) seeding is
    deterministic — each request sees exactly the completed requests
    before it. With parallel workers, whether a neighbor is already cached
    when a request classifies depends on completion timing, so seeded
    parallel runs are not byte-reproducible (final EDP is still equal or
    better per request); fixtures that pin byte parity across job counts
    must not contain family mates. A run without a cache ([--no-cache])
    never seeds: every search in it is cold. *)

val search_version : int
(** The version of the search's semantics that stored documents carry as
    their ["search"] field. A change that moves any searched mapping or
    cost bumps it, so answers computed by another version of the search
    are neither served nor used as seeds. *)

val current : Json.t -> bool
(** Whether a stored document was computed under {!search_version}; a
    document with another version, or none, is stale. *)

val stored_fields :
  config:Sun_core.Optimizer.config ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  (string * Json.t) list
(** The [("search", ...); ("family", ...); ("bounds", ...); ("sdims", ...)]
    fields the pipeline merges into every stored document: the
    {!search_version}, the structural family digest, the bounds and the
    workload's own dim names, both in structural order. *)

val stored_levels :
  Sun_tensor.Workload.t -> Json.t -> (Sun_mapping.Mapping.level_mapping list, string) result
(** A stored document's mapping levels renamed into [w]'s dim names: its
    ["sdims"] line up position by position with [w]'s
    {!Fingerprint.structural_dims}, the structural correspondence a
    fingerprint or family match implies. Identity when the document was
    stored for a workload with [w]'s dim names. The levels are not checked
    against [w]'s bounds. *)

val seed_of_doc :
  config:Sun_core.Optimizer.config ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  Json.t ->
  Sun_mapping.Mapping.level_mapping list option
(** Rename and rescale a cached neighbor document's mapping into a seed
    for [w]; [None] when the document is not {!current}, lacks transfer
    fields, its mapping does not decode, or the dim correspondence does
    not line up.
    Rescaling is capacity-aware: the residual of a dim that grew is
    sunk, prime by prime, to the innermost level that still passes
    [Model.validate] under [config]'s binding (top temporal as the
    always-legal fallback). The result as a whole is *not* re-validated
    here — [Optimizer.optimize ?seed] builds it and falls back silently
    if it is rejected. *)

val find_seed :
  ?exclude_self:bool ->
  cache:Cache.t ->
  config:Sun_core.Optimizer.config ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  Sun_mapping.Mapping.level_mapping list option
(** The full parent-side transfer probe: family digest,
    {!Cache.nearest_many} (three neighbors), {!seed_of_doc} on each, and
    the rescaled seed with the lowest EDP. Read-only with respect to the
    cache (no stats, no LRU refresh). [exclude_self] (default [false]) skips
    cached members with exactly the query's structural bounds, so a
    warm-cache benchmark re-running a catalog measures cross-layer
    transfer rather than each layer reading back its own result. *)
