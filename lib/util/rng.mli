(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator and the workload generators
    draws from an explicit [Rng.t], so a run is fully reproducible from its
    seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** Generator seeded from an integer. *)

val split : t -> t
(** Independent generator derived from [t] (advances [t]). *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean (for inter-arrival
    times). *)

val zipf : t -> n:int -> theta:float -> int
(** Zipf-distributed value in [0, n): a skewed hot-spot distribution used for
    hot-account workloads. [theta] in (0,1); larger is more skewed. *)
