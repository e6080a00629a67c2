(** Timeloop-style mapper: undirected random search over the full map-space
    with the hunt-group termination criteria of the original tool
    (Parashar et al., ISPASS 2019) and the paper's Table V hyperparameters.

    The search samples mappings uniformly from {!Sun_search.Mapspace},
    evaluates each with the shared cost model, and keeps the best valid
    mapping. Each hunt thread stops when either trips: [timeout] consecutive
    samples without improvement, or [victory_condition] consecutive *valid*
    samples without improvement. Both are counts, so the result depends
    only on the input and the seed, never on the host's speed. *)

type config = {
  timeout : int;  (** consecutive sampled mappings without improvement *)
  victory_condition : int;  (** consecutive valid mappings without improvement *)
  seed : int;
  threads : int;  (** hunt threads of the search pool (paper: 8) *)
}

val fast : config
(** Table V "fast/aggressive": TO = 20000, VC = 25. *)

val slow : config
(** Table V "slow/conservative": TO = 80000, VC = 1500. *)

val run :
  ?config:config ->
  ?binding:Sun_cost.Model.binding ->
  Sun_tensor.Workload.t ->
  Sun_arch.Arch.t ->
  Mapper.outcome
