/**
 * @file
 * The multi-cell names (MultiCellConfig, MultiCellRunRecord,
 * MultiCellEngine) live with the one engine in runtime/engine.hpp;
 * this header keeps their include path.
 */
#ifndef LTE_RUNTIME_MULTICELL_HPP
#define LTE_RUNTIME_MULTICELL_HPP

#include "runtime/engine.hpp"

#endif // LTE_RUNTIME_MULTICELL_HPP
