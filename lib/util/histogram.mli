(** Latency/size histograms with exact quantiles (sample-keeping).

    Used by the experiment harness to report mean/median/p95/p99. The
    implementation keeps all samples; experiment sizes are small enough that
    this is simpler and exact. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

val samples : t -> float array
(** A fresh copy of the samples, in the order they were added until a
    quantile, [min_value] or [max_value] sorts them in place. *)

val mean : t -> float
(** 0.0 when empty. *)

val min_value : t -> float
val max_value : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> float
(** [percentile t 0.99] is the p99 (nearest-rank). 0.0 when empty. *)

val total : t -> float
(** Sum of all samples. *)

val merge : t -> t -> t
(** New histogram holding the samples of both. *)

val summary : t -> string
(** One-line "n=.. mean=.. p50=.. p95=.. p99=.. max=.." rendering. *)
