let of_prob p =
  if p >= 1. then infinity
  else if p <= 0. then 0.
  else -.(log10 (1. -. p))

let to_prob k = 1. -. (10. ** -.k)

(* The paper prints percentages with two decimals (99.97%, 99.88%) but,
   when that would round to an all-nines string, extends through the run
   of leading nines plus one significant digit of the failure
   probability (99.9990%, 99.995%, 99.99993%). *)
let percent_string p =
  let p = Math_utils.clamp_prob p in
  if p = 1. then "100%"
  else if p = 0. then "0%"
  else begin
    let fail_pct = (1. -. p) *. 100. in
    if fail_pct >= 1. then Printf.sprintf "%.2f%%" (p *. 100.)
    else begin
      (* [lead] counts the nine-digits after the decimal point of the
         percentage; keep one further digit of the failure probability.
         If rounding at that precision would append another nine
         (misleadingly inflating the guarantee), extend the precision
         until a non-nine digit closes the string. *)
      let lead = int_of_float (Float.floor (-.log10 fail_pct)) in
      let rec render decimals =
        let s = Printf.sprintf "%.*f" decimals (p *. 100.) in
        if decimals < 12 && String.length s > 0 && s.[String.length s - 1] = '9' then
          render (decimals + 1)
        else s ^ "%"
      in
      render (max 2 (lead + 1))
    end
  end

let pp_percent fmt p = Format.pp_print_string fmt (percent_string p)

let pp_nines fmt p = Format.fprintf fmt "%.1f nines" (of_prob p)

let parse_percent s =
  let s = String.trim s in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '%' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  match float_of_string_opt s with
  | Some v when v >= 0. && v <= 100. -> Some (v /. 100.)
  | Some _ | None -> None
