let fair_share_bps = 250_000.
let bottleneck_delay_s = 0.020
let access_rate_bps = 10_000_000.
let access_delay_s = 0.010
let groups = 10
let min_rate_bps = 100_000.
let rate_factor = 1.5
let packet_size = 576
let flid_dl_slot = Mcc_mcast.Flid.default_slot Mcc_mcast.Flid.Plain
let flid_ds_slot = Mcc_mcast.Flid.default_slot Mcc_mcast.Flid.Robust
let key_width = 16

let layering () =
  Mcc_mcast.Layering.make ~groups ~min_rate_bps ~factor:rate_factor

let path_rtt_s ~bottleneck_delay_s ~access_delay_s =
  2. *. ((2. *. access_delay_s) +. bottleneck_delay_s)

let buffer_bytes ~bottleneck_rate_bps ~rtt_s =
  int_of_float (2. *. bottleneck_rate_bps *. rtt_s /. 8.)
