(** ECN adaptation of DELTA (paper Section 3.1.2, "Congestion
    notification"): instead of relying on loss, trusted edge routers
    scrub the component field of every marked packet before forwarding
    it to a local interface.  A receiver whose path marked packets then
    cannot reconstruct the guarded keys, exactly as if the packets had
    been dropped — while still receiving the data.  The component is a
    header word of the forwarded copy ({!Mcc_net.Packet.t}'s
    [delta_component]); the router overwrites it with this value. *)

val scrubbed_component : Mcc_util.Prng.t -> width:int -> Key.t -> Key.t
(** The replacement component: a fresh random value of the same width
    (randomisation rather than zeroing keeps component-guessing as hard
    as key-guessing), guaranteed to differ from the original so the key
    XOR is always perturbed. *)
