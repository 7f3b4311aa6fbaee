(** Gap-aware adversary features for a faulty padded channel.

    On a fault-free constant-rate cover stream every PIAT is ≈ τ and the
    leak lives entirely in the µs-scale jitter.  Once the channel loses
    packets (wire loss, outages, crashed gateways, coalesced timer fires),
    two things happen at the tap:

    - plain moment features drown: a single τ-scale gap contributes ~τ² to
      the sample variance, orders of magnitude above the jitter variance
      the classifier feeds on, so the naive adversary degrades toward 0.5;
    - the gaps themselves are trivially visible, and a gap of k periods
      still carries the timing jitter of its two surviving endpoints.

    A gap-aware adversary therefore {e folds} each PIAT back by the whole
    number of missing periods and classifies on the folded variance,
    recovering (most of) the fault-free leak.  Faults are not a
    countermeasure — this module is the proof. *)

val fold : tau:float -> float array -> float array
(** [fold ~tau piats] maps each PIAT [x] to [x -. (k - 1) *. tau] with
    [k = Float.round (x /. tau)]: a gap spanning [k] nominal periods
    collapses back to one period plus its endpoint jitter.  PIATs with
    [k = 0] (duplicates, back-to-back catch-up bursts) are discarded.
    [tau > 0]. *)

val gap_fraction : tau:float -> float array -> float
(** Fraction of PIATs with [k <> 1] — a direct fault-intensity estimate
    the adversary gets for free; 0.0 on an empty array. *)
