(** Frozen pre-rewrite reference evaluator.

    A verbatim copy (minus telemetry) of the cost model evaluator as it
    stood before the allocation-free rewrite of {!Sun_cost.Model}. It
    exists to be measured and tested against:

    - the golden bit-identity suite asserts [Model.evaluate_ctx] returns
      byte-identical cost records vs [Model_ref.evaluate_ctx] on every
      registry workload × preset;
    - [bench evaluate] reports the rewrite's evaluations/sec against this
      baseline and gates the ≥2× target in CI.

    The cost and transfer types are re-exported equalities with
    {!Sun_cost.Model}'s, so results compare directly. Do not optimize this
    module. *)

type binding = string -> string

type transfer = Sun_cost.Model.transfer = {
  operand : string;
  from_level : int;
  to_level : int;
  reads : float;
  fills : float;
  noc_deliveries : float;
}

type cost = Sun_cost.Model.cost = {
  energy_pj : float;
  cycles : float;
  edp : float;
  macs : float;
  transfers : transfer list;
  breakdown : (string * float) list;
  spatial_utilization : float;
}

type ctx

val context :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> ctx

val evaluate_ctx : ctx -> Sun_mapping.Mapping.t -> (cost, string) result

val evaluate :
  ?binding:binding -> Sun_tensor.Workload.t -> Sun_arch.Arch.t -> Sun_mapping.Mapping.t ->
  (cost, string) result
