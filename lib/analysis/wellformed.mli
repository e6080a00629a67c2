(** Config / architecture / workload well-formedness (pass 4).

    Renders every {!Sun_arch.Arch.violations} and
    {!Sun_tensor.Workload.violations} of an already-built value as a
    diagnostic, and checks what the constructors do not enforce (interior
    unbounded levels, zero bandwidth, operand-to-storage reachability).
    Cheap (no cost-model evaluation), so the serve pipeline runs it on
    every decoded request and rejects an inline architecture that would
    crash or nonsense-cost the optimizer up front. *)

val check_arch : Sun_arch.Arch.t -> Diagnostic.t list

val check_workload : Sun_tensor.Workload.t -> Diagnostic.t list

val check_config : Sun_core.Optimizer.config -> Diagnostic.t list

val check_pair :
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Diagnostic.t list
(** Cross-checks one (workload, architecture) pair: every operand's role
    must be accepted by some partition at some level (otherwise the cost
    model has no storage chain for it), and the unit tile of all operands
    must fit the innermost bounded buffers (otherwise no mapping exists). *)

val check_request :
  ?binding:Sun_cost.Model.binding ->
  config:Sun_core.Optimizer.config ->
  Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Diagnostic.t list
(** [check_arch @ check_workload @ check_config @ check_pair] in one call. *)
