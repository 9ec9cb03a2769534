(** The [rrq_lint] rule set: one untyped-AST pass over a parsed
    implementation (R1–R4), the file-level interface-coverage rule (R6),
    and the flow-aware rules (R5, R7, R8) over the {!Callgraph}.

    Rules match on the conventional module aliases of this tree ([Disk],
    [Wal], [Lock], [Sched], ...) — they are linters over names, not typed
    proofs. Per-rule rationale, the exact approximations, and the
    suppression policy are documented in doc/INTERNALS.md. *)

val all : (string * string * string) list
(** [(id, slug, description)] for every rule, R1..R8, in order. *)

val named : (string * string) list
(** The [(module, function)] pairs R3's layers and R5's blocking table name. *)

val check_structure : file:string -> Parsetree.structure -> Finding.t list
(** Run the syntactic rules (R1–R4) over one parsed implementation. [file]
    is the path used in findings and in R3's layer checks (so fixture
    files can place themselves in an arbitrary layer). Sorted by location. *)

val interface_coverage : files:string list -> Finding.t list
(** R6 over a file listing: every [*.ml] must have a sibling [*.mli] in the
    same listing. Pure — pass the files actually collected. *)

type lock_edge = {
  e_from : string;  (** Held lock-manager instance. *)
  e_to : string;  (** Instance being acquired. *)
  e_file : string;
  e_line : int;
  e_item : string;  (** Witness site: first acquisition seen per edge. *)
  e_via : string option;
      (** Callee label when the acquisition is interprocedural. *)
}

val lock_order_edges : Callgraph.t -> lock_edge list
(** The static lock-order graph: an edge per (held instance, acquired
    instance) pair observed on some linearized path, self-edges included.
    This is the reference set the runtime witness ([bin/rrq_witness])
    checks observed acquisition orders against. Sorted, deduplicated. *)

val flow_check : Callgraph.t -> Finding.t list
(** Run R5 (blocking under lock, local helpers expanded), R7 (lock-order
    cycle over {!lock_order_edges}, self-edges excluded) and R8
    (durability before reply, interprocedural taint) over a built call
    graph. Sorted by location. *)
