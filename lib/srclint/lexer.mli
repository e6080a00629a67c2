(** Position-carrying OCaml lexer for the source-analysis engine.

    This is a lint lexer, not a compiler front end: it tokenizes well enough
    to never misclassify code as comment or string (the failure mode of the
    old line-oriented substring scanner), and it is total — malformed input
    (an unterminated comment or string) produces a truncated token stream
    rather than an exception, because a linter must never crash on the tree
    it is checking.

    Handled faithfully:
    - nested comments, including string and char literals {e inside}
      comments (so a comment-closer spelled inside a doc-comment string
      does not close the comment early);
    - ["..."] string literals with backslash escapes and embedded newlines;
    - quoted-string literals (brace-pipe delimited, with an optional
      lowercase delimiter id);
    - char literals vs. type variables (['a'] is a char, ['a] in
      [type 'a t] is a quote symbol followed by an identifier). *)

type kind =
  | Lident  (** lowercase identifier or [_]-led identifier *)
  | Uident  (** capitalized identifier (module / constructor) *)
  | Keyword  (** OCaml keyword, e.g. [let], [match], [with] *)
  | Symbol  (** operator or punctuation, e.g. [->], [:=], [(] *)
  | Int_lit
  | Float_lit
  | String_lit  (** token text is the literal including delimiters *)
  | Char_lit

type token = {
  t_text : string;
  t_kind : kind;
  t_line : int;  (** 1-based *)
  t_col : int;  (** 0-based column of the token's first character *)
  t_start : int;  (** byte offset of the token's first character *)
  t_end : int;  (** byte offset one past the token's last character *)
}

type comment = {
  c_text : string;  (** interior text, without the comment delimiters *)
  c_line : int;  (** 1-based line of the comment opener *)
  c_col : int;  (** 0-based column of the comment opener *)
}

type t = { tokens : token array; comments : comment list }

val lex : string -> t
(** Tokenize a whole compilation unit. Never raises; on malformed input the
    stream simply ends at the point the lexer could no longer make progress. *)
