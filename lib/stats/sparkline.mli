(** One-line unicode charts for terminals. *)

val render : float array -> string
(** [render data] maps each value to one of eight block glyphs
    (▁ .. █), scaled to the data's range; a constant series renders as
    mid-height blocks, the empty array as [""]. NaNs render as spaces. *)

val with_scale : float array -> string
(** ["min [spark] max"] — the sparkline bracketed by its range. *)
