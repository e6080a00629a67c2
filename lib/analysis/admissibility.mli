(** Alpha-beta bound admissibility (pass 3).

    The bottom-up search prunes a prefix when its optimistic EDP — the
    product of [Model.prefix_lower_bounds]' energy and cycles bounds —
    already exceeds the incumbent's. That is sound only if both bounds are
    admissible: at every boundary of the eventual best mapping, the bounds
    of the prefix the search held there never exceed that mapping's true
    energy and cycles. Two checks:

    - {b bound chain} ({!check_bound}): sample complete mappings from the
      unpruned mapspace and assert, for every boundary [k], that the bounds
      of [search_prefix m ~k] stay at or below [m]'s energy and cycles. A
      violation (SA011) means some prefix of an optimal mapping could be
      alpha-beta pruned.
    - {b differential} ({!differential}): on workloads small enough to
      enumerate the *entire* mapspace (all tilings, unrollings and loop
      orders), compare the exhaustive optimum EDP against the optimizer run
      with and without alpha-beta. Alpha-beta changing the answer, or the
      search missing the exhaustive optimum, raises SA012. *)

type report = {
  workload : string;
  arch : string;
  mappings_checked : int;  (** complete mappings whose bound chain was verified *)
  exhaustive_edp : float;  (** NaN when the space was not enumerated *)
  search_edp : float;  (** optimizer EDP with alpha-beta on *)
  no_prune_edp : float;  (** optimizer EDP with alpha-beta off *)
  diagnostics : Diagnostic.t list;
}

val search_prefix :
  Sun_tensor.Workload.t -> Sun_mapping.Mapping.t -> k:int -> Sun_mapping.Mapping.t
(** The prefix the bottom-up search holds at boundary [k] on its way to a
    complete mapping: levels below [k] whole, level [k]'s order and spatial
    unrolls with its temporal factors reset to 1, and the levels above at
    their initial all-ones value — the shape [Model.prefix_lower_bounds]
    is called on. *)

val check_bound :
  ?samples:int -> ?seed:int ->
  Sun_tensor.Workload.t -> Sun_arch.Arch.t -> report
(** The bound chain on [samples] (default 64) mapspace samples plus the
    optimizer's own best mapping. Deterministic for a fixed [seed]. *)

val differential : Sun_tensor.Workload.t -> Sun_arch.Arch.t -> report
(** Exhaustive enumeration; only call on tiny workloads. Includes the
    {!check_bound} bound-chain verdict over the enumerated mappings. *)

val small_suite : unit -> (string * Sun_tensor.Workload.t * Sun_arch.Arch.t) list
(** Three tiny (workload, arch) pairs whose full mapspaces are enumerable
    in well under a second each; the default subjects of
    [sunstone check --admissibility]. *)

val check_suite : unit -> report list
(** [differential] over {!small_suite}. *)
