type prepared_cert = { seq : int; view : int; command : int }

type msg =
  | Request of { command : int }
  | Pre_prepare of { view : int; seq : int; command : int }
  | Prepare of { view : int; seq : int; command : int; replica : int }
  | Commit of { view : int; seq : int; command : int; replica : int }
  | View_change of { new_view : int; replica : int; prepared : prepared_cert list }
  | New_view of { view : int; pre_prepares : (int * int) list }
  | Status of { exec_next : int; replica : int }
  | State_transfer of { entries : (int * int) list; replica : int }
