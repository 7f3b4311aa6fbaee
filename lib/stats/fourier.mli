(** Radix-2 FFT and spectral estimation.

    Built for the spectral traffic-analysis ablation: a padded stream is a
    near-periodic pulse train, and payload-correlated jitter modulates the
    harmonic structure of its inter-arrival series.  The periodogram turns
    that into a feature the adversary can classify on, complementing the
    paper's three time-domain statistics. *)

val fft : re:float array -> im:float array -> unit
(** In-place decimation-in-time FFT.  Arrays must have equal power-of-two
    length; raises [Invalid_argument] otherwise. *)

val ifft : re:float array -> im:float array -> unit
(** Inverse FFT (normalized by 1/n). *)

val next_pow2 : int -> int
(** Smallest power of two >= n (n >= 1). *)

val periodogram : float array -> float array
(** [periodogram xs] removes the sample mean, zero-pads to a power of two,
    and returns the one-sided power spectrum |X_k|²/n for
    k = 0 .. n_fft/2 (inclusive).  Raises on input shorter than 2. *)

val spectral_entropy : float array -> float
(** Shannon entropy (nats) of the normalized non-DC periodogram — a
    scalar spectral-flatness feature: white noise scores high, a pure
    tone scores near 0.  Raises on input shorter than 4. *)
