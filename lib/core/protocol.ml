type predicate = {
  full : Config.t -> bool;
  by_count : (byz:int -> crashed:int -> bool) option;
}

type t = { name : string; n : int; safe : predicate; live : predicate }

let count_predicate ~n f =
  ignore n;
  {
    full =
      (fun config ->
        f ~byz:(Config.num_byzantine config) ~crashed:(Config.num_crashed config));
    by_count = Some (fun ~byz ~crashed -> f ~byz ~crashed);
  }

let full_predicate f = { full = f; by_count = None }

let always ~n = count_predicate ~n (fun ~byz:_ ~crashed:_ -> true)
