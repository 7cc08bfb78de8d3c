module genxio/bench

go 1.24

require genxio v0.0.0

replace genxio => ../
