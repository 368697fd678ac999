type msg =
  | Report of { round : int; value : int; from : int }
  | Proposal of { round : int; value : int option; from : int }
  | Decided of { value : int }
