module spinstreams/bench

go 1.22

require spinstreams v0.0.0

replace spinstreams => ../
