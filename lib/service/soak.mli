(** The chaos soak: a {!Server} behind a {!Chaos} fault-injecting
    proxy, checked against the resilience contract — every request ends
    in a byte-correct reply or a typed error within its deadline, and
    the server's connection table drains once the proxy is gone.
    [probcons chaos] runs {!run}; the DST ["service"] system drives the
    same {!through_proxy} stack with a serial client. *)

val allowed_codes : Wire.error_code list
(** The errors a fault may surface to a client: timeout,
    connection_lost, overloaded and deadline_exceeded. A proxy may cost
    a call its deadline or its connection and the server may shed
    load, but corruption must never surface as a reply. *)

val drain : Server.t -> int
(** Poll the server's connection count every 50 ms until it is zero,
    for at most 5 s; the count left (0 = drained). *)

val through_proxy :
  config:Server.config ->
  plan:Chaos.plan ->
  (direct:Client.target -> proxied:Client.target -> 'a) ->
  'a * Chaos.t * int
(** Start a server from [config] on a fresh Unix socket and a proxy in
    front of it, run [f] with the direct and the proxied target, stop
    the proxy, {!drain} the server and stop it. Returns [f]'s result,
    the stopped proxy and the connections left. *)

type report = {
  loadgen : Loadgen.result;
  proxy : Chaos.t;  (** Stopped; its {!Chaos.counts} are final. *)
  connections_after : int;
  failures : string list;
      (** Contract violations: byte-identity mismatches, forbidden
          error codes and undrained connections. Empty = pass. *)
}

val run :
  plan:Chaos.plan -> clients:int -> requests:int -> distinct:int -> deadline:float -> report
(** {!through_proxy} with a default server (30 s idle timeout) and
    [clients] x [requests] {!Loadgen} calls with a per-call [deadline],
    the byte-identity baseline taken from the direct path. *)

val print_report : report -> unit
(** {!Loadgen.print_report}, then the proxy's fault counts on one line. *)

val artifact : report -> Obs.Json.t
(** The [probcons-chaos/1] soak artifact. *)
