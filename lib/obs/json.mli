(** Minimal JSON reader.

    The repo's emitters hand-print their JSON; this is the matching
    hand-rolled parser for the consumers that read it back: svcbench's
    [--repeat] driver (one result line per child run) and the tests that
    round-trip the emitters' output. Full JSON syntax; every number
    becomes a [float]; string escapes are decoded (non-ASCII [\u]
    escapes degrade to ['?'], which the emitters never produce). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** Parse one complete JSON document ([Error] carries a one-line message
    with a byte offset). *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects and missing keys. *)

val to_num : t -> float option
(** The number of a [Num]; [None] for any other constructor. *)

val obj_items : t -> (string * t) list
(** Members of an [Obj], [[]] for any other constructor. *)
