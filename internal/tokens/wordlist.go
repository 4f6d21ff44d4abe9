package tokens

import (
	"strings"
	"unicode/utf8"
)

// IsDictionaryWord reports whether w (lowercased) is in the embedded
// English wordlist. The paper used PyEnchant; we embed a compact list of
// common words plus the vocabulary that actually occurs in web-tracking
// parameter values (preferences, UI state, locales).
//
// An ASCII word of up to 32 bytes is lowercased into a stack buffer, so
// the lookup allocates nothing; other words go through strings.ToLower.
func IsDictionaryWord(w string) bool {
	var buf [32]byte
	if len(w) <= len(buf) {
		n := 0
		for ; n < len(w) && w[n] < utf8.RuneSelf; n++ {
			c := w[n]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[n] = c
		}
		if n == len(w) {
			_, ok := dictionary[string(buf[:n])]
			return ok
		}
	}
	_, ok := dictionary[strings.ToLower(w)]
	return ok
}

var dictionary = make(map[string]struct{})

func init() {
	for _, w := range strings.Fields(wordlistData) {
		dictionary[w] = struct{}{}
	}
}

// wordlistData is whitespace-separated. It covers: high-frequency English
// words, web/UI vocabulary seen in storage values, colour names, month
// and day names, and search-query vocabulary used by the workload
// generators (so organic query echoes are never misclassified as IDs).
const wordlistData = `
the be to of and a in that have i it for not on with he as you do at this
but his by from they we say her she or an will my one all would there their
what so up out if about who get which go me when make can like time no just
him know take people into year your good some could them see other than then
now look only come its over think also back after use two how our work first
well way even new want because any these give day most us is was are been has
had were said did having may am shall
on off yes no true false none null auto default enabled disabled active
inactive open closed show hide visible hidden light dark mode theme user
settings panel menu button click search query page result results ad ads
advert advertising sponsored link links title description image video news
shopping maps translate account profile login logout sign register password
email language region country locale consent accept reject cookie cookies
privacy policy terms session token id identifier value key name type state
status count total index position rank order sort filter view list grid
detail summary home back next previous first last top bottom left right
center size small medium large width height color colour font text bold
italic underline red green blue yellow orange purple pink brown black white
gray grey january february march april may june july august september
october november december monday tuesday wednesday thursday friday saturday
sunday spring summer autumn winter morning afternoon evening night today
tomorrow yesterday week month year hour minute second best cheap free sale
discount offer deal price buy shop store online store delivery shipping
return warranty review rating star quality brand model series version
update upgrade install download upload file folder document photo picture
music movie film series episode season game play pause stop record live
stream watch listen read write edit delete remove add create save cancel
submit send receive share follow like comment reply post message chat call
phone mobile desktop tablet laptop computer browser window tab screen
display keyboard mouse touch gesture swipe scroll zoom rotate shake hotel
flight train ticket travel trip vacation holiday beach mountain city town
village street road avenue park garden school university college hospital
doctor dentist lawyer insurance bank credit card loan mortgage tax salary
job career resume interview meeting conference event calendar schedule
reminder alarm clock timer weather forecast temperature rain snow wind sun
cloud storm recipe food drink coffee tea water juice beer wine bread cheese
meat fish vegetable fruit apple banana chocolate cake pizza pasta rice soup
salad breakfast lunch dinner snack dessert kitchen bathroom bedroom living
room furniture chair table sofa bed lamp door wall floor ceiling roof
window garden car bike bus truck engine wheel tire fuel electric hybrid
battery charger cable adapter router modem signal network internet wifi
data plan contract subscription premium basic standard deluxe ultimate pro
plus mini max air watch pad pod book station print scan copy paste cut undo
redo find replace select all none some many few more less great small new
shoes shirt dress jacket coat hat glove sock boot sneaker jeans skirt suit
tie belt bag backpack wallet purse watch ring necklace bracelet glasses
running walking swimming cycling yoga gym fitness health diet vitamin
protein muscle weight loss gain sleep stress relax massage spa salon hair
skin face body hand foot nail makeup perfume soap shampoo brush towel
paris london montreal berlin tokyo madrid rome lisbon vienna dublin oslo
prague wireless organic vintage professional portable mattress sofa
headphones luggage sneakers blender drone tent streaming banking
silent lost eternal broken hidden golden final distant burning frozen
crimson kingdom promise signal harbor voyage echo empire horizon orchard
electric cars
`
