#pragma once
// Reference full-chip estimates of the corner_signoff designs at every
// standard corner, recorded from the library at the commit that introduced
// this benchmark. A later change that alters these numbers changes the
// model's output, not just its speed, and must say so.

#include <cstring>
#include <string>

namespace rgbench {

struct CornerReference {
  const char* corner;
  const char* design;
  double mean_na;
  double sigma_na;
};

inline constexpr CornerReference kCornerReference[] = {
    // corner, design, mean (nA), sigma (nA)
    {"SS/25C", "ctrl_8k", 159921.63381228191, 44226.558750473472},
    {"SS/25C", "soc_100k", 4576143.181378711, 1089556.1640460759},
    {"SS/25C", "dsp_1m", 77892005.863822669, 17386964.820846055},
    {"SS/110C", "ctrl_8k", 2409263.1645581685, 567272.60380484117},
    {"SS/110C", "soc_100k", 68241007.974004596, 13873857.689594159},
    {"SS/110C", "dsp_1m", 1162562649.5548651, 221862102.67612553},
    {"TT/25C", "ctrl_8k", 207238.76729708034, 62752.704925505386},
    {"TT/25C", "soc_100k", 5930118.7042464642, 1543579.2036613263},
    {"TT/25C", "dsp_1m", 100938458.99838401, 24616280.648768019},
    {"TT/110C", "ctrl_8k", 2971854.2531300895, 762618.97415383824},
    {"TT/110C", "soc_100k", 84176080.375437886, 18632834.042811107},
    {"TT/110C", "dsp_1m", 1434034606.6941223, 297837908.51574367},
    {"FF/25C", "ctrl_8k", 274804.63419110561, 91309.033249398446},
    {"FF/25C", "soc_100k", 7863509.9141184762, 2241862.5516892872},
    {"FF/25C", "dsp_1m", 133847333.01902643, 35724676.910613947},
    {"FF/110C", "ctrl_8k", 3732529.0665307925, 1045754.0734390802},
    {"FF/110C", "soc_100k", 105721761.54905145, 25520254.389347903},
    {"FF/110C", "dsp_1m", 1801089621.491127, 407725944.71407312},
};

inline const CornerReference* find_corner_reference(const std::string& corner,
                                                    const std::string& design) {
  for (const CornerReference& r : kCornerReference)
    if (corner == r.corner && design == r.design) return &r;
  return nullptr;
}

}  // namespace rgbench
