(** Mapping legality (pass 1): is a mapping a lawful schedule of a workload
    on an architecture?

    Two entry points. The structural rules are an independent
    reimplementation of [Mapping.make]'s; the capacity rule is the one
    predicate the cost model's [validate] also decides,
    {!Sun_cost.Probe.overflows} over {!Sun_cost.Probe.fit_table}, so the
    two cannot drift on what fits (a QCheck differential pins their
    verdicts to agree):

    - {!check_levels} works on *raw* level mappings (e.g. freshly decoded
      from user JSON, before [Mapping.make] has seen them) and reports
      structural violations: unknown dims, non-positive factors, factor
      lists that miss or duplicate dims, orders that are not permutations,
      per-dim factor products that miss the workload bound, and a level
      count that disagrees with the architecture.
    - {!check} additionally runs the architecture-dependent checks on a
      structurally sound mapping: per-level tile footprints against buffer
      partition capacities (SA001) and spatial unrolling products against
      PE-array fanouts (SA002). *)

val check_levels :
  ?arch:Sun_arch.Arch.t ->
  Sun_tensor.Workload.t -> Sun_mapping.Mapping.level_mapping list -> Diagnostic.t list
(** Structural checks only; [?arch] adds the level-count check (SA005). *)

val check :
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t -> Diagnostic.t list
(** Full legality of a structurally valid mapping: capacity and fanout. *)

val check_all :
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.level_mapping list ->
  Diagnostic.t list
(** [check_levels] first; if structurally clean, [check] on the built
    mapping. The one-call entry used by [sunstone check] and the serve
    pipeline. *)
