// The non-blocking collectives live on coll::CollEngine (coll.hpp);
// this name is kept for code written against the former engine.
#pragma once

#include "coll/coll.hpp"

namespace pgasq::coll {

using NbcEngine = CollEngine;

}  // namespace pgasq::coll
