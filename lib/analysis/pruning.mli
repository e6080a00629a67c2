(** Pruning soundness (pass 2): are the dims the search drops really
    non-reuse dims?

    Sunstone's ordering-trie and tiling-tree prune aggressively: at each
    level only the indexing dimensions of the operand temporally reused at
    that level (the "grow set") are considered for tiling and spatial
    unrolling, and loop orders are collapsed to reuse-signature
    representatives. Those prunes are sound only if the reuse bookkeeping is
    right, so this pass re-derives reuse from first principles — probing
    each operand's footprint function with per-dimension extent bumps,
    never consulting the dim-name bookkeeping under test — and checks:

    - the reuse table partitions the dims: for every operand, a dim either
      changes its footprint (indexing) or provably does not (reuse dim),
      and [Reuse.analyze] agrees with the probe;
    - for every ordering candidate the trie emits, an independent
      innermost-first reuse scan of the suffix reproduces the candidate's
      signature and reused-operand set;
    - for every candidate and every operand it claims reused, each dim
      *outside* that operand's grow set (i.e. every dim the tiling tree and
      unroller will drop at that level) is footprint-invariant for the
      operand — growing it could not change the reused tile, so dropping it
      cannot hide a better schedule (the Tiling / Unrolling Principles). *)

type report = {
  workload : string;
  orderings : int;  (** candidates the trie emitted *)
  dropped_dims_checked : int;  (** (candidate, operand, dropped-dim) triples probed *)
  diagnostics : Diagnostic.t list;
}

type reuse = (string * (string list * bool)) list
(** Per operand name, sorted: (sorted full-reuse dims, partial-reuse
    flag). Only operands with some reuse appear. *)

val scan : Sun_cost.Probe.t -> Sun_tensor.Workload.t -> Sun_tensor.Workload.dim list -> reuse
(** The reuse an innermost-first dim sequence earns, derived from the
    footprint probe alone: per operand, the dims absorbed before the first
    one that changes its footprint, plus a partial flag when that blocker
    is a sliding-window dim. The one reuse scan of the analysis passes:
    this pass checks trie signatures with it, {!Audit} its subsumption
    oracle and serve-side recheck. *)

val check : Sun_tensor.Workload.t -> report

val check_many : (string * Sun_tensor.Workload.t) list -> report list
(** One report per named workload, e.g. over [Registry.workloads ()]. *)
