type equivalent = { n : int; p : float; p_safe_live : float }

let raft_reliability ~n ~p = Raft_model.safe_and_live_uniform ~n ~p

let min_raft_cluster ~target ~p ?(tolerance = 0.) () =
  let rec go n =
    if n > 99 then None
    else begin
      let r = raft_reliability ~n ~p in
      if r >= target -. tolerance then Some { n; p; p_safe_live = r } else go (n + 2)
    end
  in
  go 1
