(** Inline lint suppressions — the only suppression mechanism the engine
    supports (legacy allowlist files are gone). A comment of the form

    {[ (* sunstone-lint: allow SA044 reason why this site is fine *) ]}

    suppresses diagnostics with that code on the line it targets. A comment
    sharing its line with code targets that line; a comment alone on a line
    targets the next line that carries a token. Every suppression must
    carry a reason — bare [allow SA044] is not recognized, so the "why"
    lives next to the site instead of rotting in a central file.

    Suppressions are use-tracked: one that matched nothing is reported as
    an SA065 warning by {!stale}, so silenced rules cannot rot silently. *)

type suppression = {
  s_code : string;  (** e.g. ["SA044"] *)
  s_reason : string;
  s_line : int;  (** line of the comment itself *)
  s_target : int;  (** line whose diagnostics it suppresses *)
  mutable s_used : bool;
}

val collect : Lexer.t -> suppression list
(** Parse every suppression comment in a lexed file. *)

val target_line : Lexer.t -> Lexer.comment -> int
(** The line a marker comment applies to: its own line when it shares the
    line with preceding code, else the next token-carrying line. Shared with
    the hot/cold annotation parser in {!Allocsum}. *)

val suppresses : suppression list -> code:string -> line:int -> bool
(** True when some suppression covers [code] on [line]; marks it used. *)

val stale : path:string -> suppression list -> Sun_analysis.Diagnostic.t list
(** SA065 warnings for suppressions that matched no diagnostic. *)
