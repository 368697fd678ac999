type msg =
  | Proposal of { slot : int; command : int; from : int }
  | Report of { slot : int; round : int; value : int; from : int }
  | Vote of { slot : int; round : int; value : int option; from : int }
  | Decision of { slot : int; value : int; command : int option; from : int }
