(** Per-file source model built on the {!Lexer} token stream.

    A [t] is what the rule engine sees for one compilation unit: the raw
    lines (for rendering hits), the token stream, and three derived views:

    - {b occurrences}: every dotted identifier path, with module aliases
      resolved ([module Tel = Sun_telemetry.Metrics] makes [Tel.count]
      match a [Sun_telemetry.Metrics.count] needle) and a leading [Stdlib]
      stripped, so rules match on canonical paths;
    - {b toplevel bindings}: column-0 [let]/[and] items with their name,
      parameter-ness, and body token span — the unit of reachability;
    - {b the call graph}: binding → references to other toplevel
      bindings, stitched across files by {!project_of_files} for the
      hot-path pass.

    Like the lexer this is deliberately an approximation: local shadowing
    inside a body is not tracked, and patterns more exotic than tuples keep
    only their first identifier. The rules that consume it are written so
    the approximation errs toward silence on idiomatic code. *)

type occurrence = {
  o_index : int;  (** token index of the path head *)
  o_line : int;
  o_col : int;
  o_path : string list;  (** resolved components (aliases applied, [Stdlib] stripped) *)
  o_bare : bool;  (** a single unqualified lowercase identifier *)
}

type binding = {
  b_name : string;
  b_line : int;
  b_params : bool;  (** the binding abstracts over parameters *)
  b_body_start : int;  (** first token after the binding-level [=] *)
  b_body_end : int;  (** last token of the body, inclusive *)
}

type t = {
  sm_path : string;
  sm_lines : string array;
  sm_lex : Lexer.t;
  sm_opens : string list list;  (** toplevel [open] paths, outermost first *)
  sm_bindings : binding list;
  sm_occurrences : occurrence list;
}

val of_source : path:string -> string -> t

val line_text : t -> int -> string
(** The raw source line (1-based), trimmed; [""] when out of range. *)

val binding_named : t -> string -> binding option

val matches : t -> string list -> occurrence -> bool
(** Does this occurrence denote the [needle] path? Exact resolved-path
    equality, plus the [open M] case: a bare [x] matches [[M; x]] when [M]
    is opened and no toplevel binding shadows [x]. *)

(** {1 Whole-program call graph}

    A {!project} stitches the per-file models into one graph whose nodes are
    [(file index, toplevel binding)] pairs. Dotted calls resolve across
    files: [M.x] to the same-directory module file [m.ml], [Lib.M.x] through
    the directory's [dune] [(name ...)] library prefix (so
    [Sun_cost.Model.evaluate_ctx] reaches [lib/cost/model.ml]), and bare or
    short paths additionally through the file's toplevel [open]s. Deeper
    paths are submodule accesses whose targets are not toplevel bindings and
    are deliberately skipped — like everything in this engine, resolution
    errs toward silence. *)

type project = {
  p_files : t array;
  p_dirs : string array;  (** [Filename.dirname] per file *)
  p_modules : string array;  (** capitalized basename, e.g. ["Model"] *)
  p_index : (string * string, int) Hashtbl.t;  (** (dir, Module) -> file index *)
  p_lib_dirs : (string, string) Hashtbl.t;  (** dune library prefix -> dir *)
}

val project_of_files : t list -> project
(** Build the project graph; reads each distinct directory's [dune] file (if
    any) to learn library prefixes. Directories without a [dune] file (e.g.
    fixture trees) still resolve same-directory [M.x] calls. *)

val project_reachable :
  ?stop:(int -> string -> bool) ->
  project ->
  file:int ->
  string ->
  (int * binding * string list) list
(** Bindings reachable from the named root in the given file, as
    [(file, binding, display chain)] triples; the chain starts at the root
    and renders intra-file nodes bare and cross-file nodes as [Module.name].
    Nodes for which [stop] holds are not visited (and not expanded) — the
    hook behind [(* sunstone-cold *)] boundaries. Empty
    when the root does not exist. *)
