(** Long-running verification daemon and its client: line-delimited JSON
    over a Unix-domain or loopback TCP socket.

    One request object per line, [{"id":N,"method":M,"params":{...}}];
    the server streams zero or more [{"id":N,"event":...}] lines and
    terminates every request with exactly one [{"id":N,"result":{...}}]
    or [{"id":N,"error":"..."}] line. Methods: [ping], [stats],
    [metrics] (Prometheus text exposition in [result.prometheus]),
    [trace] (param [request_id] — one recorded request's span tree as
    Chrome-trace JSON in [result.trace]),
    [verify] (params [qasm] (required) and the CLI's verify fields by
    name — [assume]/[guarantee] spec lists, [count], [seed], [solver],
    [budget], [mode], [certify] — decoded, checked and run by
    [Morphcore.Pipeline]; a refused request gets one [error] line, a
    program error as lint prints it without a file prefix), and
    [shutdown]. [stats] reports per-verb [requests], [errors] and summed
    [seconds] under [by_verb].

    Every request carries a request id — client-supplied via a top-level
    ["request_id"] field, else server-generated ([req-N]) — echoed as
    [request_id] on the terminal line, stamped on every span and log
    line the request produces, and usable as the [trace] RPC's key. The
    last N completed requests are kept in a {!Recorder} flight ring.

    All requests share one process-wide content-addressed {!Cache.t}, so
    a warm re-verification of a program the daemon has seen performs
    zero characterization shots, and the [result.cache] object (per-
    request hit/miss/store deltas) makes that observable to clients. *)

module Jsonx = Jsonx
module Spec : module type of Morphcore.Spec
module Recorder : module type of Recorder

type addr = Unix_path of string | Tcp of int  (** TCP binds loopback only *)

type state

(** [certify] (default [false]) forces translation validation on every
    [verify] request: the transpile pipeline runs through the certificate-
    emitting pass variants, the chain is re-checked by the independent
    checker ({!Transpile.Certify}), and a ["certify"] event reports the
    verdict. A failed check aborts the request with an MQ021 error line.
    Individual requests can also opt in with a ["certify": true] param.
    The flight-recorder ring keeps the last 256 requests. *)
val make_state : ?cache:Cache.t -> ?certify:bool -> unit -> state

val recorder : state -> Recorder.t
(** The state's flight recorder (tests and the [trace] RPC read it). *)

(** [handle_line state ~emit line] processes one request line, calling
    [emit] once per response line; [`Stop] after a [shutdown] request.
    Transport-free — unit tests drive the protocol through this. *)
val handle_line :
  state -> emit:(Jsonx.t -> unit) -> string -> [ `Continue | `Stop ]

(** [serve ?cache ?on_ready addr] binds, listens, and blocks serving
    connections sequentially until a [shutdown] request or SIGINT /
    SIGTERM; the socket (and Unix path) is cleaned up on exit and the
    previous signal dispositions are restored. [on_ready] runs once the
    socket is listening (used by tests to synchronize). *)
val serve :
  ?cache:Cache.t -> ?certify:bool -> ?on_ready:(unit -> unit) -> addr -> unit

module Client : sig
  (** [request ?on_event addr req] sends one request and reads lines
      until the terminal [result]/[error] line, which it returns;
      [on_event] sees each intermediate event line. *)
  val request :
    ?on_event:(Jsonx.t -> unit) -> addr -> Jsonx.t -> (Jsonx.t, string) result
end
