(** The srclint rules over the {!Srcmod} file model.

    Two per-file rules run on library code: SA044 (partial functions and
    escape hatches: [List.hd], [List.tl], [Option.get], [Obj.magic],
    [failwith], [assert false]) and SA064 ([try ... with _ ->] silently
    discarding the error).

    The hot-path pass runs on the {!Srcmod.project} call graph instead:
    SA070 flags allocation reachable from a [(* sunstone-hot *)] root, with
    [(* sunstone-cold *)] bindings fencing reachability, and SA073/SA074
    flag annotations that resolve to no binding, sit on a parameterless
    binding or repeat. A single-file project degenerates to the
    intra-module analysis. *)

type finding = {
  f_line : int;
  f_col : int;
  f_code : Sun_analysis.Diagnostic.code;
  f_message : string;  (** rule detail, without the [file:line] prefix *)
}

val check_file : Srcmod.t -> finding list
(** SA044 then SA064 findings of one file. *)

type project_finding = {
  pf_file : int;  (** index into the project's file array *)
  pf_finding : finding;
}

val check_project : Srcmod.project -> project_finding list
(** SA073/SA074 for every annotation, then SA070 per hot root. Chain
    rendering in messages is part of the output contract: nodes in the
    root's own file print bare, others as [Module.name], joined by
    [" -> "]. *)
