type severity = Error | Warning | Info

type code =
  | Capacity_overflow
  | Unroll_overflow
  | Bad_coverage
  | Bad_order
  | Level_mismatch
  | Unknown_dim
  | Nonpositive_factor
  | Pruning_unsound
  | Bound_overshoot
  | Optimum_pruned
  | Arch_malformed
  | Config_invalid
  | Workload_malformed
  | Operand_unstored
  | Order_not_subsumed
  | Trie_incomplete
  | Frontier_not_maximal
  | Frontier_overflow
  | Frontier_incomplete
  | Best_mismatch
  | Cost_drift
  | Partial_function
  | Exception_swallowed
  | Stale_suppression
  | Hot_allocation
  | Hot_unresolved
  | Hot_stale

type location = {
  level : int option;
  dim : string option;
  operand : string option;
  partition : string option;
}

type t = { code : code; severity : severity; where : location; message : string }

let code_id = function
  | Capacity_overflow -> "SA001"
  | Unroll_overflow -> "SA002"
  | Bad_coverage -> "SA003"
  | Bad_order -> "SA004"
  | Level_mismatch -> "SA005"
  | Unknown_dim -> "SA006"
  | Nonpositive_factor -> "SA007"
  | Pruning_unsound -> "SA010"
  | Bound_overshoot -> "SA011"
  | Optimum_pruned -> "SA012"
  | Arch_malformed -> "SA020"
  | Config_invalid -> "SA021"
  | Workload_malformed -> "SA022"
  | Operand_unstored -> "SA030"
  | Order_not_subsumed -> "SA031"
  | Trie_incomplete -> "SA032"
  | Frontier_not_maximal -> "SA033"
  | Frontier_overflow -> "SA034"
  | Frontier_incomplete -> "SA035"
  | Best_mismatch -> "SA036"
  | Cost_drift -> "SA037"
  | Partial_function -> "SA044"
  | Exception_swallowed -> "SA064"
  | Stale_suppression -> "SA065"
  | Hot_allocation -> "SA070"
  | Hot_unresolved -> "SA073"
  | Hot_stale -> "SA074"

let code_name = function
  | Capacity_overflow -> "capacity-overflow"
  | Unroll_overflow -> "unroll-overflow"
  | Bad_coverage -> "bad-coverage"
  | Bad_order -> "bad-order"
  | Level_mismatch -> "level-mismatch"
  | Unknown_dim -> "unknown-dim"
  | Nonpositive_factor -> "nonpositive-factor"
  | Pruning_unsound -> "pruning-unsound"
  | Bound_overshoot -> "bound-overshoot"
  | Optimum_pruned -> "optimum-pruned"
  | Arch_malformed -> "arch-malformed"
  | Config_invalid -> "config-invalid"
  | Workload_malformed -> "workload-malformed"
  | Operand_unstored -> "operand-unstored"
  | Order_not_subsumed -> "order-not-subsumed"
  | Trie_incomplete -> "trie-incomplete"
  | Frontier_not_maximal -> "frontier-not-maximal"
  | Frontier_overflow -> "frontier-overflow"
  | Frontier_incomplete -> "frontier-incomplete"
  | Best_mismatch -> "pruned-best-mismatch"
  | Cost_drift -> "cost-drift"
  | Partial_function -> "partial-function"
  | Exception_swallowed -> "exception-swallowed"
  | Stale_suppression -> "stale-suppression"
  | Hot_allocation -> "hot-path-allocation"
  | Hot_unresolved -> "hot-annotation-unresolved"
  | Hot_stale -> "hot-annotation-stale"

let all_codes =
  [
    Capacity_overflow; Unroll_overflow; Bad_coverage; Bad_order; Level_mismatch; Unknown_dim;
    Nonpositive_factor; Pruning_unsound; Bound_overshoot; Optimum_pruned; Arch_malformed;
    Config_invalid; Workload_malformed; Operand_unstored; Order_not_subsumed; Trie_incomplete;
    Frontier_not_maximal; Frontier_overflow; Frontier_incomplete; Best_mismatch; Cost_drift;
    Partial_function; Exception_swallowed; Stale_suppression; Hot_allocation; Hot_unresolved;
    Hot_stale;
  ]

let code_of_id id = List.find_opt (fun c -> code_id c = id) all_codes

let code_summary = function
  | Capacity_overflow -> "a tile footprint exceeds a partition capacity"
  | Unroll_overflow -> "a level's spatial product exceeds its fanout"
  | Bad_coverage -> "per-dim factors missing, duplicated, or not multiplying to the bound"
  | Bad_order -> "a level's loop order is not a permutation of the workload dims"
  | Level_mismatch -> "mapping level count differs from the architecture's"
  | Unknown_dim -> "a factor or order names a dim the workload does not declare"
  | Nonpositive_factor -> "a temporal or spatial factor below 1"
  | Pruning_unsound -> "a dim dropped by the search is not a non-reuse dim"
  | Bound_overshoot -> "committed-level energy exceeds a complete mapping's energy"
  | Optimum_pruned -> "the alpha-beta search lost the reference optimum"
  | Arch_malformed -> "an architecture breaks an Arch.violations rule; a negative energy warns"
  | Config_invalid -> "optimizer config outside its documented domain"
  | Workload_malformed -> "workload breaks its own structural invariants"
  | Operand_unstored -> "no partition at any level accepts an operand's role"
  | Order_not_subsumed -> "a pruned loop order has no dominating trie candidate"
  | Trie_incomplete -> "the order trie misses a signature-distinct order class"
  | Frontier_not_maximal -> "a tiling frontier point can still grow and fit"
  | Frontier_overflow -> "a tiling frontier point does not actually fit"
  | Frontier_incomplete -> "frontier differs from the brute-force maximal set"
  | Best_mismatch -> "pruned-search best differs from the exhaustive best"
  | Cost_drift -> "a served mapping's claimed cost differs on re-evaluation"
  | Partial_function -> "banned partial function or escape hatch in lib/"
  | Exception_swallowed -> "try ... with _ -> silently discarding the error in lib/"
  | Stale_suppression -> "an inline lint suppression matching no hit"
  | Hot_allocation -> "allocation reachable from a declared hot root"
  | Hot_unresolved -> "a (* sunstone-hot *) annotation the call graph cannot resolve"
  | Hot_stale -> "a stale or duplicate (* sunstone-hot *) annotation"

let code_scope = function
  | Capacity_overflow | Unroll_overflow | Bad_coverage | Bad_order | Level_mismatch
  | Unknown_dim | Nonpositive_factor | Operand_unstored ->
    "mapping legality"
  | Pruning_unsound | Bound_overshoot | Optimum_pruned -> "search pruning"
  | Arch_malformed | Config_invalid | Workload_malformed -> "registry well-formedness"
  | Order_not_subsumed | Trie_incomplete | Frontier_not_maximal | Frontier_overflow
  | Frontier_incomplete | Best_mismatch | Cost_drift ->
    "mapspace audit"
  | Partial_function | Exception_swallowed -> "src: lib/"
  | Stale_suppression -> "src: any scanned file"
  | Hot_allocation | Hot_unresolved | Hot_stale -> "src: (* sunstone-hot *) roots, whole program"

let nominal_severity = function
  | Stale_suppression -> Warning
  | _ -> Error

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_of_name = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let rule_table () =
  List.map
    (fun c -> (code_id c, severity_name (nominal_severity c), code_summary c, code_scope c))
    all_codes

let make severity ?level ?dim ?operand ?partition code message =
  { code; severity; where = { level; dim; operand; partition }; message }

let error ?level ?dim ?operand ?partition code message =
  make Error ?level ?dim ?operand ?partition code message

let warning ?level ?dim ?operand ?partition code message =
  make Warning ?level ?dim ?operand ?partition code message

let info ?level ?dim ?operand ?partition code message =
  make Info ?level ?dim ?operand ?partition code message

let errors ds = List.filter (fun d -> d.severity = Error) ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let summary ds =
  match ds with
  | [] -> "no diagnostics"
  | _ ->
    let count sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
    let part n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
    let pieces =
      List.filter_map
        (fun (sev, what) ->
          let n = count sev in
          if n = 0 then None else Some (part n what))
        [ (Error, "error"); (Warning, "warning"); (Info, "info") ]
    in
    Printf.sprintf "%s (%s)" (part (List.length ds) "diagnostic") (String.concat ", " pieces)

let location_string where =
  let fields =
    List.filter_map
      (fun x -> x)
      [
        Option.map (Printf.sprintf "level %d") where.level;
        Option.map (Printf.sprintf "dim %s") where.dim;
        Option.map (Printf.sprintf "operand %s") where.operand;
        Option.map (Printf.sprintf "partition %s") where.partition;
      ]
  in
  match fields with [] -> "" | fs -> " (" ^ String.concat ", " fs ^ ")"

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s%s: %s" (severity_name d.severity) (code_id d.code)
    (code_name d.code) (location_string d.where) d.message

let pp_list ppf ds =
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp) ds
