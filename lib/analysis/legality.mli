(** Mapping legality (pass 1): is a mapping a lawful schedule of a workload
    on an architecture?

    Legality decides no rule itself; it renders the owners' verdicts as
    diagnostics: {!Sun_mapping.Mapping.violations} for the structure,
    {!Sun_cost.Probe.overflows} over {!Sun_cost.Probe.fit_table} for
    capacity, and {!Sun_arch.Arch.unroll_violation} for the PE array. The
    cost model's [validate] reads the same predicates (a QCheck
    differential pins their verdicts to agree). {!check_levels} takes
    *raw* level mappings (e.g. freshly decoded from user JSON); {!check}
    takes a structurally sound mapping. *)

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
(** [check_levels] first; if structurally clean, [check] on the mapping
    [Mapping.make] builds from the levels. The one-call entry used by
    [sunstone check] and the serve pipeline. *)
