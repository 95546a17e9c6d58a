module duet/bench

go 1.22

require duet v0.0.0

replace duet => ../
