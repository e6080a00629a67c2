(** dMazeRunner-style mapper (Dave et al., TECS 2019): directed enumeration
    of the map-space pruned by user-specified minimum-utilization
    thresholds (the paper's Table V fast/slow configurations).

    Reproduced behaviours from the paper's evaluation: layers that cannot
    meet the utilization floors yield *no valid mapping* (early Inception
    layers under-filling L2), and asymmetric convolutions (R != S) are
    rejected outright because the tool assumes symmetric filter windows.

    The enumeration is {!Enumerator}'s: unrollings of the output-indexing
    dims (every dim when spatial reduction is allowed) that reach the PE
    floor, tiles that reach the L1 floor at level 0 and the L2 floor
    above it. It stops on {!Enumerator.examined_budget}, a count shared
    by both configurations, not on wall time. *)

type config = {
  l1_min_utilization : float;
  l2_min_utilization : float;
  pe_min_utilization : float;
  allow_spatial_reduction : bool;
      (** when [false], spatially unrolled dimensions must index the output
          (no cross-PE accumulation) *)
  assume_symmetric_conv : bool;
  max_order_candidates : int;  (** per-level loop permutations evaluated *)
}

val fast : config
(** Table V fast/aggressive: L1 80%, L2 50%, PE 80%, spatial reduction
    not allowed. *)

val slow : config
(** Table V slow/conservative: L1 60%, L2 40%, PE 80%, spatial reduction
    allowed. *)

val run :
  ?config:config ->
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  Mapper.outcome
