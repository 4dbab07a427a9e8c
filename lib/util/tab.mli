(** Minimal ASCII table rendering for benchmark output. *)

type align = Left | Right

val render :
  ?align:align list ->
  header:string list ->
  string list list ->
  string
(** [render ~header rows] lays out a table with a header rule.  [align]
    defaults to left for the first column and right for the rest.  Rows
    shorter than the header are padded with empty cells. *)

val print :
  ?align:align list ->
  header:string list ->
  string list list ->
  unit

val fu : float -> string
(** Format a µs quantity compactly: ["26.0"], ["1.2e4"] style. *)

val fx : float -> string
(** Format a ratio/speedup with two decimals. *)

val chart :
  ?width:int ->
  ?y_label:string ->
  series:(string * (float * float) list) list ->
  unit ->
  string
(** Plain-text scatter chart of several [(x, y)] series, one letter per
    series, for eyeballing the shape of a figure in terminal output.  Points
    are bucketed onto a [width x height] grid; overlapping series show the
    later letter. *)
